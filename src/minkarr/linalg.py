"""Vectors and small exact linear algebra: row reduction, rank, the affine
dimension of a point set, and coordinates of points inside their affine hull.

Everything here is dimension-generic and works on exact scalars; the rank
of exact rows is fraction-free integer elimination (``_int_eliminate``,
which also inverts the integer basis of ``lp.polar_facets``), and floating
inputs degrade gracefully to tolerance-based pivoting.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

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
        return scalars.dot(self.coords, other.coords)

    def norm_sq(self) -> Scalar:
        return scalars.dot(self.coords, self.coords)

    def is_zero(self) -> bool:
        return all(scalars.eq(a, 0) for a in self.coords)

    def __eq__(self, other) -> bool:
        """Exact coordinates compare as tuples; a float among them makes
        the comparison ``scalars.eq`` entry by entry, with the tolerance."""
        if not isinstance(other, Vector) or other.dim != self.dim:
            return NotImplemented
        if scalars.is_exact(*self.coords, *other.coords):
            return self.coords == other.coords
        return all(scalars.eq(a, b) for a, b in zip(self.coords, other.coords))

    def __repr__(self) -> str:
        return "Vector(%s)" % (", ".join(repr(c) for c in self.coords))

    def _check(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch: %d vs %d"
                             % (len(self.coords), len(other.coords)))


def zero_vector(dim: int) -> Vector:
    return Vector([0] * dim)


def _rref(rows: List[List[Scalar]], ncols: int):
    """In-place reduced row echelon form; returns the pivot column list.

    Pivot rows are divided with ``div``, so exact entries come out as
    Fractions whatever their input type."""
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
    """Rank of the rows.

    Exact rows are scaled once to integers over one common denominator and
    reduced by fraction-free (Bareiss) elimination: each step replaces a row
    r by (p*r - f*top) / prev, p the pivot, f the row's entry in the pivot
    column and prev the previous pivot, a division that is always exact.
    Rows with a float keep the tolerance pivoting of ``_rref``."""
    if not rows:
        return 0
    scaled = scalars.int_rows(rows)
    if scaled is None:
        return len(_rref([list(row) for row in rows], len(rows[0])))
    return _int_rank(scaled[0], len(rows[0]))


def _int_rank(m: List[List[int]], ncols: int) -> int:
    """Rank of integer rows by Bareiss elimination; reorders and rewrites m."""
    return len(_int_eliminate(m, ncols)[0])


def _int_eliminate(m: List[List[int]], ncols: int, jordan: bool = False):
    """Fraction-free elimination of the integer rows m over their first
    ncols columns, in place, by the step of ``matrix_rank``; returns
    (pivots, p), the pivot columns and the last pivot (1 when none).  With
    ``jordan`` every other row takes each step, not only the rows below,
    and the rows end as p times their reduced row echelon form: p*I in the
    pivot columns, and p times the inverse of the pivot block in the
    columns of an appended identity."""
    pivots, prev = [], 1
    for c in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        p = top[c]
        for r in range(0 if jordan else rank + 1, len(m)):
            if r != rank:
                f = m[r][c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
        pivots.append(c)
        prev = p
        if rank + 1 == len(m):
            break
    return pivots, prev


def affine_rank(points: Sequence[Sequence[Scalar]]) -> int:
    """Dimension of the affine hull of the points (coordinate rows or
    Vectors).

    Exact points are scaled once to integers over one denominator, and the
    rank is the fraction-free rank of their differences to the first point.
    Points with a float take the tolerance rank of ``affine_coordinates``:
    the same reduction of the difference columns, so the same pivots."""
    if not points:
        raise ValueError("affine rank of an empty point set")
    scaled = scalars.int_rows(points)
    if scaled is None:
        origin = points[0]
        rows = [[p[r] - origin[r] for p in points] for r in range(len(origin))]
        return len(_rref(rows, len(points)))
    first, *rest = scaled[0]
    return _int_rank([[a - b for a, b in zip(r, first)] for r in rest],
                     len(first))


def affine_coordinates(points: Sequence[Vector]):
    """Exact coordinates of the points inside their own affine hull.

    Returns (coords, basis, origin): origin is points[0], basis is an
    independent list of difference vectors, and coords[i] are the coefficients
    of points[i] - origin in that basis (a Vector of length len(basis)), or
    (None, [], origin) when all points coincide.

    One row reduction of the difference columns gives both: the pivot
    columns are the basis, and the reduced columns are the coordinates.
    """
    origin = points[0]
    diffs = [p - origin for p in points]
    rows = [[d[r] for d in diffs] for r in range(origin.dim)]
    pivots = _rref(rows, len(diffs))
    if not pivots:
        return None, [], origin
    coords = [Vector(row[c] for row in rows[:len(pivots)])
              for c in range(len(diffs))]
    return coords, [diffs[c] for c in pivots], origin
