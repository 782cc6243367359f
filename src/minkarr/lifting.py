"""Per-pair projection frames, shadow segments, the lift and its slab planes.

Geometry of the construction, for a fixed pair (i, j) of homothets in R^d:

* the frame carries the boundary direction r (gauge-1 point toward the other
  center) and a supporting plane a.z = 1 of the unit body at r, so a.r = 1;
* projecting every member along that hyperplane's direction space onto the
  line through v_i with direction r turns each homothet into the interval
  [alpha_k - lam_k, alpha_k + lam_k] in r-units (the shadow), and pairwise
  intersection gives the intervals a common point x;
* embedding R^d into the flat {x_{d+1} = 0, x_{d+2} = 1} of R^{d+2}, raising
  each center by its ratio, and centrally projecting from the origin onto
  {x_{d+1} = 1} sends member k to y_k = (v_k / lam_k, 1 / lam_k), and the two
  wedge hyperplanes built at x become a pair of parallel planes whose slab
  contains every y_k.

The slab planes have a closed form: the shared normal is
N = (a, -a.v_i - x) and the outer planes are N.y = -1 and N.y = +1.
Because a.(v_k - v_i) = alpha_k, every lifted point satisfies
N.y_k = (alpha_k - x)/lam_k, so y_k lies in the slab exactly when x lies in
shadow interval k.  The labeling convention is that k_ij is the outer plane
on the i side (offset -1 before orientation) and the normal is oriented so
that N.y_i <= N.y_j.

Exact input runs on integer forms, each derived once and handed on.  The
arrangement's centers and ratios over one denominator, (v_k, lam_k) =
(P_k, s_k)/q, give y_k = Y_k/w_k with Y_k = (P_k, q) and w_k = s_k > 0.  On
an exact body every frame and every shadow is read from one n x m matrix,
the arrangement's projections U_k[h] = h.P_k over the body's half rows h
(one row of each +- facet pair, over one denominator D), the pass that
also gives its distances.  The frame of (i, j) takes the column h with the
largest |U_j[h] - U_i[h]| = top and the sign s of that difference, ties
going to the lexicographically least facet s*h: that is the least facet
active at r, a = s*h/D = A/f with g = gcd(D, h), A = s*h/g and f = D/g,
and r = (P_j - P_i)*D/top.  The shadow is column h: alpha_k =
s*(U_k[h] - U_i[h])/g over f*q.  Its ends are the extremes of
s*U_k[h]/g -+ s_k*f, less s*U_i[h]/g, and those extremes depend on (h, s)
alone, so ``slab_pairs`` takes each once and reads every pair's common
point from them.

Each pair-layer object stores one form and reads its public values from it:
a shadow keeps every alpha_k -+ lam_k over one denominator (integers over
f*q, or the computed values over 1 when a float is involved), a slab its
plane (M, k_ij, k_ji, g_ij, g_ji), the normal and offsets over one positive
integer denominator (as computed when a value is a float).  So y_k lies in
the slab exactly when lo*w_k <= M.Y_k <= hi*w_k (lo <= hi the outer
offsets), and the ratio identity is one integer equality.

Every other polytope arrangement (float facets, or a float among the
members) reads the same quantities from its ``facet_projections``, one
matrix U_k[a] = a.(v_k - v_0) over the canonical facets a, anchored at a
center v_0 (the first exact one, if any).  The frame of (i, j) is the
lexicographically least facet whose difference U_j[a] - U_i[a] equals the
largest one, top, or on floats lies within ``scalars.TOLERANCE``,
relative, of it, with r = (v_j - v_i)/top.  The shadow is column a,
alpha_k = U_k[a] - U_i[a], its ends checked per pair, relative to v_i: a
column's extremes shared across pairs, relative to v_0, round otherwise on
floats and can miss an empty shadow.  The slab normal is
(a, -(a.v_0 + U_i[a] + x)).  Only the ball takes its ``boundary_frame``
per pair.  Both float routes read each point as (y_k, 1) and fold the
tolerance into the ends.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from . import scalars
from .arrangement import Arrangement
from .linalg import Vector
from .scalars import Scalar, div, format_scalar as fmt, int_form


@dataclass(frozen=True)
class ProjectionFrame:
    """Direction data for one ordered pair (i, j)."""
    i: int
    j: int
    r_vec: Vector          # gauge-1 point of K toward v_j - v_i
    f_normal: Vector       # supporting plane f_normal . z = 1 of K at r_vec
    # (A, f) with f_normal = A/f, derived when not given; None for a float
    # normal
    a_form: Optional[tuple] = field(default=None, repr=False, compare=False)
    # (h, s): f_normal is s times half row h, column h of the arrangement's
    # projections, or (a, 1): f_normal is facet a, column a of its
    # facet_projections; None when the frame was not read from either
    column: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.a_form is None:
            object.__setattr__(self, "a_form", int_form(self.f_normal.coords))


class ShadowData(NamedTuple):
    """All members projected to r-units on the line through v_i and v_j,
    with the common point x_coord of their intervals.

    ``form`` is (alphas, lows, highs, den, lo_idx, hi_idx): the alphas and
    interval ends over den (integers over f*q for exact input, the computed
    values over 1 otherwise) and the indices of the intersection's ends.
    Every public value but x_coord is read from it.
    """
    i: int
    j: int
    form: tuple
    x_coord: Scalar

    @property
    def alphas(self) -> Tuple[Scalar, ...]:       # alpha_i = 0
        return tuple(div(v, self.form[3]) for v in self.form[0])

    @property
    def intervals(self) -> Tuple[Tuple[Scalar, Scalar], ...]:
        _, lows, highs, den = self.form[:4]
        return tuple((div(lo, den), div(hi, den))
                     for lo, hi in zip(lows, highs))

    @property
    def inter_lo(self) -> Scalar:
        _, lows, _, den, lo_idx, _ = self.form
        return div(lows[lo_idx], den)

    @property
    def inter_hi(self) -> Scalar:
        _, _, highs, den, _, hi_idx = self.form
        return div(highs[hi_idx], den)

    @property
    def u_i(self) -> Scalar:                      # x - v_i = u_i * r
        return _x_gap(self.x_coord, self.form[0][self.i], self.form[3], 1)

    @property
    def u_j(self) -> Scalar:                      # v_j - x = u_j * r
        return _x_gap(self.x_coord, self.form[0][self.j], self.form[3], -1)


def _x_gap(x: Scalar, alpha: Scalar, den: int, sign: int) -> Scalar:
    """sign * (x - alpha/den), built as one Fraction when both are exact."""
    if scalars.is_exact(x, alpha):
        e = x.denominator
        return Fraction(sign * (x.numerator * den - alpha * e), e * den)
    return x - div(alpha, den) if sign > 0 else div(alpha, den) - x


class ShadowIntersectionError(ValueError):
    """The shadow intervals have empty intersection; carries a witness pair
    of members whose homothets cannot intersect."""

    def __init__(self, witness: Tuple[int, int]):
        self.witness = witness
        super().__init__("shadow intervals of members %d and %d are disjoint; "
                         "the family is not pairwise intersecting" % witness)


class DegenerateWedgeError(ValueError):
    """The two wedge planes project to the same hyperplane (or the lifted
    pair is flattened onto one plane), so no slab pair exists."""


_DEGENERATE = "projected pair lies on one hyperplane; the inner planes coincide"


def _facet_column(arr: Arrangement, i: int, j: int):
    """(h, s, row, top) of the pair (i, j) of an arrangement with
    projections U: the column h with the largest |U_j[h] - U_i[h]| = top,
    the sign s of that difference and the facet's row s*h; ties go to the
    lexicographically least row."""
    projections = arr.projections
    deltas = list(map(operator.sub, projections[j][0], projections[i][0]))
    top = max(map(abs, deltas))
    if not top:
        raise ValueError("coincident centers: members %d and %d" % (i, j))
    best = None
    for h, delta in enumerate(deltas):
        if delta == top or delta == -top:
            s = 1 if delta > 0 else -1
            row = tuple(s * x for x in arr.body.half_rows[h])
            if best is None or row < best[2]:
                best = (h, s, row)
    return best + (top,)


def _float_facet(arr: Arrangement, i: int, j: int):
    """(a, top) of the pair (i, j) of an arrangement with
    ``facet_projections`` U: top the largest U_j[a] - U_i[a], and a the
    first facet, in their lexicographic order, whose difference is top, or
    on floats within ``scalars.TOLERANCE``, relative, of top: the least
    facet active at r = (v_j - v_i)/top."""
    rows = arr.facet_projections[2]
    deltas = list(map(operator.sub, rows[j], rows[i]))
    top = max(deltas)
    if not scalars.gt(top, 0):
        raise ValueError("coincident centers: members %d and %d" % (i, j))
    cut = top if scalars.is_exact(top) else top - scalars.TOLERANCE * top
    return next(a for a, delta in enumerate(deltas) if delta >= cut), top


def build_frame(arr: Arrangement, i: int, j: int) -> ProjectionFrame:
    """Frame for the pair (i, j); the centers must differ.

    Exact centers on an exact body read the arrangement's projections
    (module docstring): the facet a = s*h/D of the column h and the sign
    s that ``_facet_column`` picks, its form (s*h/g, D/g) for
    g = gcd(D, h), and r = (P_j - P_i)*D/top.  Any other polytope
    arrangement reads its ``facet_projections``: the facet a that
    ``_float_facet`` picks and r = (v_j - v_i)/top.  The ball takes its
    ``boundary_frame`` of v_j - v_i.
    """
    if arr.projections is None:
        diff = arr.members[j].center - arr.members[i].center
        if diff.is_zero():
            raise ValueError("coincident centers: members %d and %d" % (i, j))
        if arr.facet_projections is None:
            return ProjectionFrame(i, j, *arr.body.boundary_frame(diff))
        a, top = _float_facet(arr, i, j)
        return ProjectionFrame(i, j, diff / top,
                               Vector(arr.facet_projections[0][a]),
                               column=(a, 1))
    h, s, row, top = _facet_column(arr, i, j)
    den, rows, d = arr.projections[0][1], arr.form[0], arr.dim
    g = math.gcd(den, *row)
    r_vec = Vector(Fraction(c * den, top)
                   for c in map(operator.sub, rows[j][:d], rows[i][:d]))
    return ProjectionFrame(i, j, r_vec, Vector(Fraction(x, den) for x in row),
                           ([x // g for x in row], den // g), (h, s))


def shadow(arr: Arrangement, frame: ProjectionFrame) -> ShadowData:
    """Project every member onto the frame's line, in r-units.

    The shadow of v_k + lam_k K is exactly [alpha_k - lam_k, alpha_k + lam_k]
    because K lies between the supporting hyperplanes at r and -r and both
    endpoints are attained.  The common point is the midpoint of the interval
    intersection (the first largest low end and the first smallest high
    end); shadow_with_x moves it to any other point of it.  A frame read
    from the projections, or the facet projections, reads its column of
    them; any other (the ball's) computes a.(v_k - v_i)/a.r.
    """
    i, j = frame.i, frame.j
    if frame.column and arr.projections is not None:
        # a = A/f, A.P_k = s*U_k[h]/g: alpha_k = (A.P_k - A.P_i)/(f*q)
        (h, s), f, (rows, q) = frame.column, frame.a_form[1], arr.form
        g = arr.projections[0][1] // f
        t = [s * p[h] // g for p, _ in arr.projections]
        alphas = [t_k - t[i] for t_k in t]
        lams, den = [row[-1] * f for row in rows], f * q
    elif frame.column:
        alphas = _facet_alphas(arr, i, j, frame.column[0])
        lams, den = [h.ratio for h in arr.members], 1
    else:
        a, vi = frame.f_normal.coords, arr.members[i].center.coords
        denom = _dot(a, frame.r_vec.coords)
        alphas = [div(_dot(a, map(operator.sub, h.center.coords, vi)), denom)
                  for h in arr.members]
        lams, den = [h.ratio for h in arr.members], 1
    lows, highs, lo_idx, hi_idx = _ends(alphas, lams)
    form = alphas, lows, highs, den, lo_idx, hi_idx
    return ShadowData(i, j, form,
                      div(lows[lo_idx] + highs[hi_idx], 2 * den))


def _ends(alphas, lams):
    """(lows, highs, lo_idx, hi_idx): the intervals alpha_k -+ lam_k and
    the first largest low end and first smallest high end, which raise a
    ``ShadowIntersectionError`` when they do not meet."""
    lows = [al - lam for al, lam in zip(alphas, lams)]
    highs = [al + lam for al, lam in zip(alphas, lams)]
    lo_idx, hi_idx = lows.index(max(lows)), highs.index(min(highs))
    if scalars.gt(lows[lo_idx], highs[hi_idx]):
        raise ShadowIntersectionError((lo_idx, hi_idx))
    return lows, highs, lo_idx, hi_idx


def _facet_alphas(arr: Arrangement, i: int, j: int, a: int) -> list:
    """alpha_k = U_k[a] - U_i[a] of the pair (i, j) on column a of the
    facet projections: floats when a.r is a float, as a.(v_k - v_i)/a.r
    would be (with U_i a float they are already)."""
    t = [u[a] for u in arr.facet_projections[2]]
    alphas = [t_k - t[i] for t_k in t]
    if scalars.is_exact(t[i]) and not scalars.is_exact(t[j]):
        return list(map(float, alphas))
    return alphas


def shadow_with_x(sd: ShadowData, x_coord: Scalar) -> ShadowData:
    """The same shadow re-pointed at another common point of the intervals."""
    _, lows, highs, den, lo_idx, hi_idx = sd.form
    lo, hi = lows[lo_idx], highs[hi_idx]
    if scalars.is_exact(x_coord, lo, hi):  # x = X/e: lo*e <= X*den <= hi*e
        x, e = x_coord.numerator * den, x_coord.denominator
    else:
        x, e, lo, hi = x_coord, 1, div(lo, den), div(hi, den)
    if not (scalars.le(lo * e, x) and scalars.le(x, hi * e)):
        raise ValueError("x_coord lies outside the interval intersection")
    return ShadowData(sd.i, sd.j, sd.form, x_coord)


def ratio(lam_i: Scalar, lam_j: Scalar, u_i: Scalar, u_j: Scalar) -> Scalar:
    """The width ratio 2*lam_i*lam_j / (lam_i*u_j + lam_j*u_i).

    A vanishing denominator (the doubly-extreme position of the common
    point) is reported as the infinity marker math.inf.  A negative
    denominator makes the signed value negative: the common point then sits
    on the far side of both centers, the wedge is inverted, and the distance
    identity holds for the absolute value.  Whenever neither homothet center
    lies interior to the other (u_i, u_j >= 0), the denominator is positive.
    """
    form = int_form((lam_i, lam_j, u_i, u_j))
    if form:  # over one denominator, which cancels
        lam_i, lam_j, u_i, u_j = form[0]
    if scalars.le(lam_i, 0) or scalars.le(lam_j, 0):
        raise ValueError("ratios must be positive")
    denom = lam_i * u_j + lam_j * u_i
    if scalars.sign(denom) == 0:
        return math.inf
    return div(2 * lam_i * lam_j, denom)


def _dot(a, b):
    """Dot product over the shorter of a and b: A reads a row's center."""
    return sum(map(operator.mul, a, b))


@dataclass(frozen=True)
class LiftedConfig:
    """Points y_k = (v_k/lam_k, 1/lam_k) with forms (Y_k, w_k), or None."""
    points: Tuple[Vector, ...]
    forms: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.forms is None:
            forms = tuple(int_form(y.coords) for y in self.points)
            object.__setattr__(self, "forms",
                               None if None in forms else forms)


def _lift_point(center: Vector, lam: Scalar) -> Vector:
    return Vector([div(c, lam) for c in center.coords] + [div(1, lam)])


def lift(arr: Arrangement) -> LiftedConfig:
    """Central projection of the raised centers; exact for rational input."""
    if arr.form is None:
        return LiftedConfig(tuple(_lift_point(h.center, h.ratio)
                                  for h in arr.members))
    rows, q = arr.form
    forms = tuple((row[:-1] + (q,), row[-1]) for row in rows)
    return LiftedConfig(tuple(Vector(Fraction(c, w) for c in y)
                              for y, w in forms), forms)


class SlabPair:
    """Parallel-plane data of one pair in the lifted space (dim d+1).

    The normal is the closed form (a, -a.v_i - x) of the module docstring,
    possibly negated, at the scale of the offset-1 supporting plane (outer
    offsets -1 and +1) rather than unit Euclidean length; every check
    performed on a slab is a ratio of offsets along the same normal, which
    is scale-invariant.  Orientation satisfies normal . y_i <= normal . y_j.

    ``plane`` is (M, k_ij, k_ji, g_ij, g_ji): the normal and the four
    offsets over the positive integer ``den``, or the values as given with
    den None when one of them is a float (``slab_pair``: on the tolerance
    route).  The public values are read from it: over den, the normal and
    the inner offsets are Fractions and the outer offsets are ints when den
    divides them, so a slab from ``slab_pair`` has outer offsets -1 and +1.
    """

    __slots__ = ("i", "j", "plane", "den")

    def __init__(self, i: int, j: int, normal: Vector, c_k_ij: Scalar,
                 c_k_ji: Scalar, c_g_ij: Scalar, c_g_ji: Scalar):
        values = normal.coords + (c_k_ij, c_k_ji, c_g_ij, c_g_ji)
        values, den = int_form(values) or (values, None)
        self.i, self.j, self.den = i, j, den
        self.plane = (tuple(values[:-4]), *values[-4:])

    @classmethod
    def _over(cls, i: int, j: int, plane: tuple,
              den: Optional[int]) -> "SlabPair":
        slab = cls.__new__(cls)
        slab.i, slab.j, slab.plane, slab.den = i, j, plane, den
        return slab

    @property
    def values(self) -> tuple:
        """(normal coordinates, c_k_ij, c_k_ji, c_g_ij, c_g_ji)."""
        den = self.den
        if den is None:
            return self.plane
        m, k_ij, k_ji, g_ij, g_ji = self.plane
        return (tuple(Fraction(v, den) for v in m),
                *(k // den if k % den == 0 else Fraction(k, den)
                  for k in (k_ij, k_ji)),
                Fraction(g_ij, den), Fraction(g_ji, den))

    normal = property(lambda self: Vector(self.values[0]))
    # outer planes from the wedge planes at i and at j
    c_k_ij = property(lambda self: self.values[1])
    c_k_ji = property(lambda self: self.values[2])
    # inner planes through y_i and through y_j
    c_g_ij = property(lambda self: self.values[3])
    c_g_ji = property(lambda self: self.values[4])


def slab_pair(arr: Arrangement, frame: ProjectionFrame,
              sd: ShadowData) -> SlabPair:
    """Build the parallel plane pair of the pair (i, j) from its shadow.

    For the supporting plane a.z = 1 at r and common point x the normal is
    N = (a, -a.v_i - x) with outer offsets -1 (i side) and +1 (j side).
    N.y_k = (alpha_k - x)/lam_k for every member k, so the slab contains
    y_k exactly when x lies in shadow interval k.  The inner planes pass
    through y_i and y_j; they coincide exactly when the width ratio's
    denominator vanishes, and then no slab pair exists.  A frame read from
    the facet projections takes a.v_i as a.v_0 + U_i[a].
    """
    a, i, j = frame.f_normal, frame.i, frame.j
    if arr.form and frame.a_form and scalars.is_exact(sd.x_coord):
        rows, coef = arr.form[0], frame.a_form[0]
        return _int_slab(arr, i, j, frame.a_form, _dot(coef, rows[i]),
                         _dot(coef, rows[j]), sd.x_coord)
    if frame.column and arr.facet_projections is not None:
        _, base, rows = arr.facet_projections
        c_i = base[frame.column[0]] + rows[i][frame.column[0]]
    else:
        c_i = a.dot(arr.members[i].center)
    y_i, y_j = (_lift_point(h.center, h.ratio).coords
                for h in (arr.members[i], arr.members[j]))
    return _float_slab(i, j, a.coords, c_i, sd.x_coord, y_i, y_j)


def _float_slab(i: int, j: int, a: tuple, c_i: Scalar, x: Scalar,
                y_i: tuple, y_j: tuple) -> SlabPair:
    """The slab of (i, j) on the float route: the normal (a, -c_i - x) for
    c_i = a.v_i, its dots with the lifted points y_i and y_j, oriented."""
    m = a + (-c_i - x,)
    gi, gj = _dot(m, y_i), _dot(m, y_j)
    if scalars.eq(gi, gj):
        raise DegenerateWedgeError(_DEGENERATE)
    sg = -1 if scalars.gt(gi, gj) else 1
    return SlabPair._over(i, j, ([sg * v for v in m], -sg, sg, sg * gi,
                                 sg * gj), None)


def _int_slab(arr: Arrangement, i: int, j: int, a_form: tuple, c_i: int,
              c_j: int, x: Fraction) -> SlabPair:
    """The slab of (i, j) over its integer denominator, for a = A/f with
    c_k = A.P_k and the common point x = X/e.  Over t = F/f and u = X*q*F/e,
    F = lcm(f, e), the normal N times F*q is M = (t*q*A, -t*c_i - u), so
    M.Y_i = -u*q and M.Y_j = q*(t*(c_j - c_i) - u)."""
    (coef, f), (rows, q) = a_form, arr.form
    big = math.lcm(f, x.denominator)
    t, u = big // f, x.numerator * (big // x.denominator) * q
    m = [c * t * q for c in coef]
    m.append(-c_i * t - u)
    w_i, w_j = rows[i][-1], rows[j][-1]
    w = w_i * w_j                                  # g_i, g_j over F*q*w
    gi, gj = -u * q * w_j, q * (t * (c_j - c_i) - u) * w_i
    if gi == gj:
        raise DegenerateWedgeError(_DEGENERATE)
    sg, k = -1 if gi > gj else 1, big * q * w
    plane = [sg * v * w for v in m], -sg * k, sg * k, sg * gi, sg * gj
    return SlabPair._over(i, j, plane, k)


def slab_pairs(arr: Arrangement) -> Tuple[SlabPair, ...]:
    """The slab of every pair i < j, in order, as ``slab_pair`` builds it
    at the shadow midpoint, raising what the pair's frame, shadow or slab
    raises.  With projections no frame or shadow is built: a pair reads
    its column (h, s), and the column's extremes, max_k(s*U_k[h]/g -
    s_k*f) and min_k(s*U_k[h]/g + s_k*f) with their first indices, are
    taken once per (h, s), so a pair's common point takes O(1).  With
    facet projections no frame or shadow is built either: a pair reads its
    facet a, the column's intervals U_k[a] - U_i[a] -+ lam_k, checked per
    pair in O(n) subtractions, and its slab, from lifted points taken once
    per arrangement.  Only the ball builds each pair's frame and shadow."""
    n = len(arr.members)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    slabs = []
    if arr.facet_projections is not None:
        facets, base, rows = arr.facet_projections
        lams = [h.ratio for h in arr.members]
        ys = [_lift_point(h.center, h.ratio).coords for h in arr.members]
        for i, j in pairs:
            a = _float_facet(arr, i, j)[0]
            lows, highs, lo_idx, hi_idx = _ends(
                _facet_alphas(arr, i, j, a), lams)
            x = div(lows[lo_idx] + highs[hi_idx], 2)
            slabs.append(_float_slab(i, j, facets[a], base[a] + rows[i][a],
                                     x, ys[i], ys[j]))
        return tuple(slabs)
    if arr.projections is None:
        for i, j in pairs:
            frame = build_frame(arr, i, j)
            slabs.append(slab_pair(arr, frame, shadow(arr, frame)))
        return tuple(slabs)
    (rows, q), den = arr.form, arr.projections[0][1]
    columns = {}
    for i, j in pairs:
        h, s, row, _ = _facet_column(arr, i, j)
        column = columns.get((h, s))
        if column is None:
            g = math.gcd(den, *row)
            f = den // g
            t = [s * p[h] // g for p, _ in arr.projections]
            lows = [t_k - r[-1] * f for t_k, r in zip(t, rows)]
            highs = [t_k + r[-1] * f for t_k, r in zip(t, rows)]
            lo, hi = max(lows), min(highs)
            column = columns[h, s] = (([x // g for x in row], f), t, lo,
                                      lows.index(lo), hi, highs.index(hi))
        a_form, t, lo, lo_idx, hi, hi_idx = column
        if lo > hi:
            raise ShadowIntersectionError((lo_idx, hi_idx))
        x = Fraction(lo + hi - 2 * t[i], 2 * a_form[1] * q)
        slabs.append(_int_slab(arr, i, j, a_form, t[i], t[j], x))
    return tuple(slabs)


def _on_one_scale(slab: SlabPair, lifted: LiftedConfig):
    """(plane, forms, exact): the slab's plane and the lifted points' forms
    (Y, w) on one scale.  They are the integer forms when both are exact,
    else the slab's values with each point read as (y, 1)."""
    if slab.den and lifted.forms:
        return slab.plane, lifted.forms, True
    return slab.values, [(y.coords, 1) for y in lifted.points], False


def verify_slab(lifted: LiftedConfig, slab: SlabPair) -> Tuple[bool, Optional[int]]:
    """Check that every lifted point lies between the two outer planes.

    Returns (ok, index of the first point outside or None).  Exact
    containment in rational mode, on the integer forms; in floating mode the
    ends are widened by the tolerance times the Euclidean length of the
    normal, summed in floats (under ``--mode float`` the body's facets are
    floats, so its last bits may differ, by about 1e-16 relative, from a sum
    whose first d terms are exact).
    """
    (m, k_1, k_2, _, _), forms, exact = _on_one_scale(slab, lifted)
    margin = 0 if exact else \
        scalars.TOLERANCE * math.sqrt(float(_dot(m, m)))
    lo, hi = min(k_1, k_2) - margin, max(k_1, k_2) + margin
    offender = next((k for k, (y, w) in enumerate(forms)
                     if not lo * w <= _dot(m, y) <= hi * w), None)
    return offender is None, offender


def width_gaps(slab: SlabPair, lifted: LiftedConfig) -> Tuple[Scalar, Scalar]:
    """(k_ij - k_ji, N.y_i - N.y_j) with N.y read from the lifted points;
    their quotient is the signed width ratio (integers for exact input)."""
    (m, k_ij, k_ji, _, _), forms, _ = _on_one_scale(slab, lifted)
    (y_i, w_i), (y_j, w_j) = forms[slab.i], forms[slab.j]
    return (k_ij - k_ji) * w_i * w_j, _dot(m, y_i) * w_j - _dot(m, y_j) * w_i


def verify_ratio_identity(slab: SlabPair, y_i: Vector, y_j: Vector,
                          expected: Scalar) -> bool:
    """The width-ratio identity |k_ij - k_ji| / |g_ij - g_ji| = |expected|.

    line(y_i, y_j) meets the outer planes at s_i and s_j with s_i - s_j =
    (y_j - y_i)(k_ij - k_ji)/(g_ji - g_ij), so the distance ratio
    |s_i - s_j| / |y_i - y_j| is this offset ratio whenever y_i != y_j: one
    equality is the whole identity.  A signed expected value is checked
    through its absolute value.  Exact in rational mode, relative 1e-9
    otherwise.
    """
    if isinstance(expected, float) and not math.isfinite(expected):
        raise ValueError("expected ratio is not finite")
    expected = abs(expected)
    exact = slab.den and scalars.is_exact(expected)
    _, k_ij, k_ji, g_ij, g_ji = slab.plane if exact else slab.values
    if scalars.sign(g_ij - g_ji) == 0:
        raise ValueError("inner planes coincide; the ratio is undefined")
    if exact:
        holds = abs(k_ij - k_ji) * expected.denominator \
            == expected.numerator * abs(g_ij - g_ji)
    else:
        holds = scalars.eq_rel(abs(div(k_ij - k_ji, g_ij - g_ji)), expected)
    if holds and y_i == y_j:
        raise ValueError("lifted points coincide")
    return holds


def pair_diagnostics(arr: Arrangement, frame: ProjectionFrame,
                     sd: ShadowData) -> dict:
    """JSON-ready dump of the per-pair construction from frame and shadow."""
    rho = ratio(arr.members[frame.i].ratio, arr.members[frame.j].ratio,
                sd.u_i, sd.u_j)
    slab = slab_pair(arr, frame, sd)
    normal, c_k_ij, c_k_ji, c_g_ij, c_g_ji = slab.values
    lifted = lift(arr)
    ok, offender = verify_slab(lifted, slab)
    return {
        "pair": [frame.i, frame.j],
        "frame": {"r_vec": [fmt(c) for c in frame.r_vec],
                  "f_normal": [fmt(c) for c in frame.f_normal],
                  "f_offset": 1},
        "alphas": [fmt(a) for a in sd.alphas],
        "intervals": [[fmt(lo), fmt(hi)] for lo, hi in sd.intervals],
        "x": fmt(sd.x_coord),
        "u_i": fmt(sd.u_i),
        "u_j": fmt(sd.u_j),
        "ratio": fmt(rho) if not (isinstance(rho, float)
                                  and math.isinf(rho)) else "infinite",
        "slab": {"normal": [fmt(c) for c in normal],
                 "c_k_ij": fmt(c_k_ij), "c_k_ji": fmt(c_k_ji),
                 "c_g_ij": fmt(c_g_ij), "c_g_ji": fmt(c_g_ji)},
        "slab_contains_all": ok,
        "slab_offender": offender,
    }
