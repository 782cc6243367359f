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
alone.  So the common point of every pair on column h is one point, the
midpoint of the column's extremes, and every such pair has one slab: with
t_k = A.P_k for A = h/g and the extremes lo = max_k(t_k - s_k*f) and
hi = min_k(t_k + s_k*f), the normal N = (a, -a.v_i - x) is
(A/f, -(lo + hi)/(2*f*q)) whatever i is, and the column (h, -s) gives -N.
``slab_pairs`` builds that slab once per half row, M = (2*q*A, -(lo + hi))
and |M.Y_k| <= K*w_k with K = 2*f*q, reduced by their gcd; only the inner
planes differ between the pairs, and the packing check reads those from
the points.

Each pair-layer object stores one form and reads its public values from it:
a shadow keeps every alpha_k -+ lam_k over one denominator (integers over
f*q, or the computed values over 1 when a float is involved), a slab its
plane (M, k_ij, k_ji, g_ij, g_ji), the normal and offsets over one positive
integer denominator (as computed when a value is a float).  So y_k lies in
the slab exactly when lo*w_k <= M.Y_k <= hi*w_k (lo <= hi the outer
offsets), and the ratio identity is one integer equality.  A family's
``Slab`` keeps only the normal and the outer offsets, on that scale.

Every other polytope arrangement (float facets, or a float among the
members) fills the same columns with U_k[h] = a_h.(v_k - v_0) in its own
scalars, a_h the canonical facet of half row h and v_0 the arrangement's
anchor, and reads the same quantities from them.  One picker,
``_facet_column``, takes every pair's column, on floats with every
|U_j[h] - U_i[h]| within ``scalars.TOLERANCE``, relative, of top as a tie;
negation and |.| are exact on floats, so that is the least facet within
the tolerance of the largest a.(v_j - v_i), with r = (v_j - v_i)/top.  The
shadow is column h, alpha_k = s*U_k[h] - s*U_i[h], its ends checked per
pair, relative to v_i: a column's extremes shared across pairs, relative
to v_0, round otherwise on floats and can miss an empty shadow.  The slab
normal is (a, -(a.v_0 + s*U_i[h]) - x) for the stored facet a.  The family
takes that slab from one float pair kernel, ``_column_slab``, with no
frame, shadow or slab object: the column, the pair's own shadow ends, and
the normal, with a.v_0 taken once per (h, s) and the orientation read on
the family's lifted points, which an inexact arrangement keeps.  ``shadow``
and ``slab_pair``, the route of ``lift`` for one pair, read the column
through the kernel's helpers.  Only the ball takes its ``boundary_frame``
per pair.  Both inexact routes keep one slab per pair, read each point as
(y_k, 1) and fold the tolerance into the ends; a sum that can see a float
is ``scalars.dot``, added left to right, so float values do not depend on
the interpreter.  Centers that coincide (within the tolerance on floats)
raise ``CoincidentCentersError``, carrying the pair.
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
from .scalars import Scalar, div, dot, format_scalar as fmt, int_form


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
    # projections; None when the frame was not read from them
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


class CoincidentCentersError(ValueError):
    """Two members' centers coincide (within the tolerance on floats), so
    the pair has no frame; carries the pair as its witness."""

    def __init__(self, witness: Tuple[int, int]):
        self.witness = witness
        super().__init__("coincident centers: members %d and %d" % witness)


class DegenerateWedgeError(ValueError):
    """The two wedge planes project to the same hyperplane (or the lifted
    pair is flattened onto one plane), so no slab pair exists."""


_DEGENERATE = "projected pair lies on one hyperplane; the inner planes coincide"


def _facet_column(arr: Arrangement, i: int, j: int):
    """(h, s, top) of the pair (i, j) of an arrangement with projections U:
    top the largest |U_j[h] - U_i[h]|, the column h of that difference and
    its sign s; ties go to the lexicographically least facet row s*h, and
    on floats every difference within ``scalars.TOLERANCE``, relative, of
    top is a tie.  A top of 0 (at most the tolerance on floats) raises
    ``CoincidentCentersError``."""
    projections = arr.projections
    deltas = list(map(operator.sub, projections[j][0], projections[i][0]))
    top = max(map(abs, deltas))
    inexact = isinstance(top, float)
    if top <= (scalars.TOLERANCE if inexact else 0):
        raise CoincidentCentersError((i, j))
    cut = top - scalars.TOLERANCE * top if inexact else top
    ties = [h for h, delta in enumerate(deltas) if abs(delta) >= cut]
    h = ties[0] if len(ties) == 1 else min(ties, key=lambda h: tuple(
        (1 if deltas[h] > 0 else -1) * x for x in arr.body.half_rows[h]))
    return h, (1 if deltas[h] > 0 else -1), top


def build_frame(arr: Arrangement, i: int, j: int) -> ProjectionFrame:
    """Frame for the pair (i, j); the centers must differ.

    A polytope arrangement reads its projections (module docstring): the
    facet a is the stored facet s*h/D of the column h and the sign s that
    ``_facet_column`` picks, and r = (P_j - P_i)*D/top when the arrangement
    is exact, else (v_j - v_i)/top.  The ball takes its ``boundary_frame``
    of v_j - v_i.  Coinciding centers raise ``CoincidentCentersError``.
    """
    if arr.projections is None:
        diff = arr.members[j].center - arr.members[i].center
        if diff.is_zero():
            raise CoincidentCentersError((i, j))
        return ProjectionFrame(i, j, *arr.body.boundary_frame(diff))
    h, s, top = _facet_column(arr, i, j)
    if arr.exact:
        den, rows, d = arr.projections[0][1], arr.form[0], arr.dim
        r = [Fraction(c * den, top)
             for c in map(operator.sub, rows[j][:d], rows[i][:d])]
    else:
        r = [div(c, top) for c in map(operator.sub, arr.members[j].center,
                                      arr.members[i].center)]
    return ProjectionFrame(i, j, Vector(r), arr.body.half_facets[h][s < 0],
                           column=(h, s))


def shadow(arr: Arrangement, frame: ProjectionFrame) -> ShadowData:
    """Project every member onto the frame's line, in r-units.

    The shadow of v_k + lam_k K is exactly [alpha_k - lam_k, alpha_k + lam_k]
    because K lies between the supporting hyperplanes at r and -r and both
    endpoints are attained.  The common point is the midpoint of the interval
    intersection (the first largest low end and the first smallest high
    end); shadow_with_x moves it to any other point of it.  A frame read
    from the projections reads its column of them, an inexact column through
    the helpers of the float pair kernel (``_column_t``, ``_column_alphas``);
    any other frame (the ball's) computes a.(v_k - v_i)/a.r.  The ends are
    ``_shadow_ends`` on every route.
    """
    i, j = frame.i, frame.j
    if frame.column and arr.exact:
        # a = A/f, A.P_k = s*U_k[h]/g: alpha_k = (A.P_k - A.P_i)/(f*q)
        (h, s), f, (rows, q) = frame.column, frame.a_form[1], arr.form
        g = arr.projections[0][1] // f
        t = [s * p[h] // g for p, _ in arr.projections]
        alphas = [t_k - t[i] for t_k in t]
        lams, den = [row[-1] * f for row in rows], f * q
    else:
        lams, den = [h.ratio for h in arr.members], 1
        if frame.column:
            alphas = _column_alphas(_column_t(arr, *frame.column), i, j)
        else:
            a, vi = frame.f_normal.coords, arr.members[i].center.coords
            denom = dot(a, frame.r_vec.coords)
            alphas = [div(dot(a, map(operator.sub, h.center.coords, vi)),
                          denom) for h in arr.members]
    lows, highs, lo_idx, hi_idx = _shadow_ends(alphas, lams)
    form = alphas, lows, highs, den, lo_idx, hi_idx
    return ShadowData(i, j, form,
                      div(lows[lo_idx] + highs[hi_idx], 2 * den))


def _column_t(arr: Arrangement, h: int, s: int) -> list:
    """t_k = s*U_k[h] of the inexact column (h, s), -U as 0 - U, whose zero
    is +0.0 as a fold over -h gives it."""
    return [p[h] if s > 0 else 0 - p[h] for p, _ in arr.projections]


def _column_alphas(t: list, i: int, j: int) -> list:
    """alpha_k = t_k - t_i of the pair (i, j) on an inexact column, made
    floats when t_i or t_j is one: a.r is a float then."""
    t_i = t[i]
    alphas = [t_k - t_i for t_k in t]
    return alphas if scalars.is_exact(t_i, t[j]) else list(map(float, alphas))


def _shadow_ends(alphas: list, lams: list) -> tuple:
    """(lows, highs, lo_idx, hi_idx): the intervals alpha_k -+ lam_k and the
    first indices of the largest low end and of the smallest high end,
    raising ``ShadowIntersectionError`` when those do not meet."""
    lows = list(map(operator.sub, alphas, lams))
    highs = list(map(operator.add, alphas, lams))
    lo_idx, hi_idx = lows.index(max(lows)), highs.index(min(highs))
    if scalars.gt(lows[lo_idx], highs[hi_idx]):
        raise ShadowIntersectionError((lo_idx, hi_idx))
    return lows, highs, lo_idx, hi_idx


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

    Exact scalars a/b, c/d, e/f, g/h (lam_i, lam_j, u_i, u_j) give the one
    Fraction 2ac*fh / (ag*df + ce*bh), decided on those integers.
    """
    if scalars.is_exact(lam_i, lam_j, u_i, u_j):
        a, b = lam_i.numerator, lam_i.denominator
        c, d = lam_j.numerator, lam_j.denominator
        e, f = u_i.numerator, u_i.denominator
        g, h = u_j.numerator, u_j.denominator
        if a <= 0 or c <= 0:
            raise ValueError("ratios must be positive")
        denom = a * g * d * f + c * e * b * h
        if denom == 0:
            return math.inf
        return Fraction(2 * a * c * f * h, denom)
    if scalars.le(lam_i, 0) or scalars.le(lam_j, 0):
        raise ValueError("ratios must be positive")
    denom = lam_i * u_j + lam_j * u_i
    if scalars.sign(denom) == 0:
        return math.inf
    return div(2 * lam_i * lam_j, denom)


def _dot(a, b):
    """Dot product over the shorter of a and b (A reads a row's center), on
    integers and Fractions; ``scalars.dot`` wherever a float can flow."""
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


def _lifted(h) -> list:
    """The coordinates of the member's lifted point (v/lam, 1/lam)."""
    return [div(c, h.ratio) for c in h.center.coords] + [div(1, h.ratio)]


def lift(arr: Arrangement) -> LiftedConfig:
    """Central projection of the raised centers; exact for rational input.
    An arrangement that is not ``exact`` keeps its lift, as it keeps its
    projections: the float pair kernel of ``slab_pairs`` reads the points
    the family lifted."""
    if arr.exact:
        return _lift(arr)
    kept = vars(arr).get("lifted")
    if kept is None:
        kept = vars(arr)["lifted"] = _lift(arr)
    return kept


def _lift(arr: Arrangement) -> LiftedConfig:
    if arr.form is None:
        return LiftedConfig(tuple(Vector(_lifted(h)) for h in arr.members))
    rows, q = arr.form
    forms = tuple((row[:-1] + (q,), row[-1]) for row in rows)
    return LiftedConfig(tuple(Vector(Fraction(c, w) for c in y)
                              for y, w in forms), forms)


class Slab(NamedTuple):
    """The slab lo <= N.y <= hi of a family, shared by every pair that
    indexes it.  On the integer route (``exact``) the normal M and the
    offsets are integers on the scale of the lifted points' forms, so
    y_k = Y_k/w_k lies in it exactly when lo*w_k <= M.Y_k <= hi*w_k;
    otherwise they are the computed values, each point is read as
    (y_k, 1) and the ends are widened by the tolerance."""
    normal: tuple
    lo: Scalar
    hi: Scalar
    exact: bool


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

    def outer(self, on_forms: bool) -> "Slab":
        """The slab between the pair's outer planes: its integer plane when
        it has one and the lifted points have forms (``on_forms``), else
        its values."""
        exact = on_forms and self.den is not None
        m, lo, hi = (self.plane if exact else self.values)[:3]
        if lo > hi:
            lo, hi = hi, lo
        return Slab(tuple(m), lo, hi, exact)

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
    the projections of an inexact arrangement takes a.v_i as
    a.v_0 + s*U_i[h], the normal and its orientation from the helpers of the
    float pair kernel (``_column_normal``, ``_orientation``).
    """
    i, j, x = frame.i, frame.j, sd.x_coord
    if arr.form and frame.a_form and scalars.is_exact(x):
        plane, den = _int_plane(arr, i, j, frame.a_form, x)
        return SlabPair._over(i, j, plane, den)
    a = frame.f_normal.coords
    if frame.column and not arr.exact:
        m = _column_normal(arr, *frame.column, a, dot(a, arr.anchor.coords),
                           i, x)
    else:
        m = a + (-frame.f_normal.dot(arr.members[i].center) - x,)
    sg, gi, gj = _orientation(m, _lifted(arr.members[i]),
                              _lifted(arr.members[j]))
    return SlabPair._over(i, j, ([sg * v for v in m], -sg, sg, sg * gi,
                                 sg * gj), None)


def _column_normal(arr: Arrangement, h: int, s: int, a: tuple, base: Scalar,
                   i: int, x: Scalar) -> tuple:
    """The slab normal (a, -(a.v_0 + s*U_i[h]) - x) of a pair (i, j) on the
    inexact column (h, s): a.v_i from base = a.v_0 for the stored facet
    a, and the common point x."""
    return a + (-(base + s * arr.projections[i][0][h]) - x,)


def _orientation(m: tuple, y_i, y_j) -> tuple:
    """(sg, g_i, g_j): g_k = m.y_k and the sign sg with sg*g_i <= sg*g_j
    within the tolerance, raising ``DegenerateWedgeError`` when g_i and g_j
    are equal within it (the inner planes coincide)."""
    gi, gj = dot(m, y_i), dot(m, y_j)
    if scalars.eq(gi, gj):
        raise DegenerateWedgeError(_DEGENERATE)
    return (-1 if scalars.gt(gi, gj) else 1), gi, gj


def _int_plane(arr: Arrangement, i: int, j: int, a_form: tuple,
               x: Fraction) -> tuple:
    """(plane, den): the plane (M, k_ij, k_ji, g_ij, g_ji) of (i, j) over
    its positive integer den, for a = A/f with c_k = A.P_k and the common
    point x = X/e.  Over t = F/f and u = X*q*F/e, F = lcm(f, e), the normal
    N times F*q is M = (t*q*A, -t*c_i - u), so M.Y_i = -u*q and
    M.Y_j = q*(t*(c_j - c_i) - u)."""
    (coef, f), (rows, q) = a_form, arr.form
    c_i, c_j = _dot(coef, rows[i]), _dot(coef, rows[j])
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
    return ([sg * v * w for v in m], -sg * k, sg * k, sg * gi, sg * gj), k


def slab_pairs(arr: Arrangement) -> Tuple[Tuple[Slab, ...], tuple]:
    """The arrangement's slab family (slabs, pairs): every pair i < j, in
    order, as (i, j, index of its slab), raising what the first pair's
    frame, shadow or slab raises.

    With exact projections the pairs share their slabs, at most one per
    half row h (module docstring), and no frame or shadow is built: a pair
    reads its column (h, s); the column's extremes lo and hi of t_k -+ s_k*f, with
    their first indices, and its slab (M, -K, K) are taken once per h.  A
    column whose extremes do not meet raises, at its first pair, the
    witness in that pair's orientation s (-s swaps the two ends).  A pair
    whose inner planes coincide, M.Y_i*w_j == M.Y_j*w_i, that is
    (2*t_i - lo - hi)*w_j == (2*t_j - lo - hi)*w_i, raises a degenerate
    wedge.  Any other polytope arrangement keeps one slab per pair from
    ``_column_slab``, the float pair kernel, and the ball the outer planes
    of the ``SlabPair`` its frame and shadow give."""
    n = len(arr.members)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not arr.exact:
        one_each = tuple((i, j, k) for k, (i, j) in enumerate(pairs))
        if arr.projections is None:
            per_pair = []
            for i, j in pairs:
                frame = build_frame(arr, i, j)
                per_pair.append(slab_pair(arr, frame, shadow(arr, frame)))
            return (tuple(p.outer(arr.form is not None) for p in per_pair),
                    one_each)
        points = [y.coords for y in lift(arr).points]
        lams, columns = [h.ratio for h in arr.members], {}
        return tuple(_column_slab(arr, i, j, points, lams, columns)
                     for i, j in pairs), one_each
    (rows, q), den = arr.form, arr.projections[0][1]
    half_rows, columns, slabs, index = arr.body.half_rows, {}, [], []
    for i, j in pairs:
        h, s, _ = _facet_column(arr, i, j)
        column = columns.get(h)
        if column is None:
            g = math.gcd(den, *half_rows[h])
            f = den // g
            t = [p[h] // g for p, _ in arr.projections]
            lows = [t_k - r[-1] * f for t_k, r in zip(t, rows)]
            highs = [t_k + r[-1] * f for t_k, r in zip(t, rows)]
            lo, hi = max(lows), min(highs)
            if lo > hi:
                witness = lows.index(lo), highs.index(hi)
                raise ShadowIntersectionError(witness if s > 0
                                              else witness[::-1])
            m = [2 * q * (x // g) for x in half_rows[h]] + [-(lo + hi)]
            bound = 2 * f * q
            c = math.gcd(bound, *m)
            column = columns[h] = len(slabs), t, lo + hi
            slabs.append(Slab(tuple(v // c for v in m), -bound // c,
                              bound // c, True))
        k, t, mid = column
        if (2 * t[i] - mid) * rows[j][-1] == (2 * t[j] - mid) * rows[i][-1]:
            raise DegenerateWedgeError(_DEGENERATE)
        index.append((i, j, k))
    return tuple(slabs), tuple(index)


def _column_slab(arr: Arrangement, i: int, j: int, points: list,
                 lams: list, columns: dict) -> Slab:
    """The float pair kernel: the slab of the pair (i, j) of an inexact
    polytope arrangement, the outer planes of the ``SlabPair`` that
    ``build_frame``, ``shadow`` and ``slab_pair`` give, with no object on
    the way.  It reads the pair's column (h, s) (``_facet_column``), checks
    its own shadow ends on it and builds the normal of the stored facet a;
    ``columns`` keeps t, a, a.v_0 and the integer form of a (when the
    points have forms) per (h, s), and ``points`` are the lifted points."""
    h, s, _ = _facet_column(arr, i, j)
    column = columns.get((h, s))
    if column is None:
        a = arr.body.half_facets[h][s < 0].coords
        column = columns[h, s] = (_column_t(arr, h, s), a,
                                  dot(a, arr.anchor.coords),
                                  arr.form and int_form(a))
    t, a, base, a_form = column
    lows, highs, lo, hi = _shadow_ends(_column_alphas(t, i, j), lams)
    x = div(lows[lo] + highs[hi], 2)
    if a_form and scalars.is_exact(x):
        plane, k = _int_plane(arr, i, j, a_form, x)
        return Slab(tuple(plane[0]), -k, k, True)
    m = _column_normal(arr, h, s, a, base, i, x)
    sg = _orientation(m, points[i], points[j])[0]
    return Slab(tuple([sg * v for v in m]), -1, 1, False)


def slab_rows(slab: Slab, points: tuple, forms) -> list:
    """(M.Y_k, w_k) of every lifted point k, in order, from its integer
    form (Y_k, w_k) when the slab is exact, else (N.y_k, 1)."""
    m = slab.normal
    if slab.exact:
        return [(_dot(m, y), w) for y, w in forms]
    return [(dot(m, y.coords), 1) for y in points]


def first_escape(slab: Slab, rows: list) -> Optional[int]:
    """The first point k outside the slab, given its ``slab_rows``, or
    None: lo*w_k <= M.Y_k <= hi*w_k fails, exactly on the integer route;
    on the float route the ends are widened by the tolerance times the
    Euclidean length of the normal."""
    margin = 0 if slab.exact else \
        scalars.TOLERANCE * math.sqrt(float(dot(slab.normal, slab.normal)))
    lo, hi = slab.lo - margin, slab.hi + margin
    return next((k for k, (r, w) in enumerate(rows)
                 if not lo * w <= r <= hi * w), None)


def verify_slab(lifted: LiftedConfig, slab: SlabPair) -> Tuple[bool, Optional[int]]:
    """Check that every lifted point lies between the pair's two outer
    planes, the check ``lift`` reports for one pair: ``first_escape`` on
    the pair's outer slab and its ``slab_rows``, so exact containment on the
    integer forms in rational mode, and in floating mode the ends widened by
    the tolerance times the Euclidean length of the normal.

    Returns (ok, index of the first point outside or None).
    """
    outer = slab.outer(lifted.forms is not None)
    offender = first_escape(outer, slab_rows(outer, lifted.points,
                                             lifted.forms))
    return offender is None, offender


def verify_ratio_identity(slab: SlabPair, y_i: Vector, y_j: Vector,
                          expected: Scalar) -> bool:
    """The width-ratio identity |k_ij - k_ji| / |g_ij - g_ji| = |expected|.

    line(y_i, y_j) meets the outer planes at s_i and s_j with s_i - s_j =
    (y_j - y_i)(k_ij - k_ji)/(g_ji - g_ij), so the distance ratio
    |s_i - s_j| / |y_i - y_j| is this offset ratio whenever y_i != y_j: one
    equality is the whole identity.  A signed expected value is checked
    through its absolute value, on an exact one |p|/q as the cross-multiplied
    integer equality.  Exact in rational mode, relative 1e-9 otherwise.
    """
    if isinstance(expected, float) and not math.isfinite(expected):
        raise ValueError("expected ratio is not finite")
    exact = slab.den and scalars.is_exact(expected)
    _, k_ij, k_ji, g_ij, g_ji = slab.plane if exact else slab.values
    if scalars.sign(g_ij - g_ji) == 0:
        raise ValueError("inner planes coincide; the ratio is undefined")
    if exact:
        holds = abs(k_ij - k_ji) * expected.denominator \
            == abs(expected.numerator) * abs(g_ij - g_ji)
    else:
        holds = scalars.eq_rel(abs(div(k_ij - k_ji, g_ij - g_ji)),
                               abs(expected))
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
