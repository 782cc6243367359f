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
an exact body the frame is that of the integer difference P_j - P_i, and it
carries its normal as a = A/f; the shadow keeps every alpha_k -+ lam_k as an
integer over f*q; a slab's plane (M, k_ij, k_ji, g_ij, g_ji) is its normal
and offsets over one positive denominator, so y_k lies in the slab exactly
when lo*w_k <= M.Y_k <= hi*w_k (lo <= hi the outer offsets) and the ratio
identity is one integer equality.  The public Fractions of a shadow and a
slab are built from these integers only when read (dumps, the diagram,
tests).  Objects built by hand derive their forms; a float anywhere, the
ball's frame included, keeps the tolerance loops below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

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
    # (A, f) with f_normal = A/f, derived once; None for a float normal
    a_form: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a_form", int_form(self.f_normal.coords))


class ShadowData:
    """All members projected to r-units on the line through v_i and v_j,
    with the common point x_coord of their intervals.

    Built from its public fields, which are then kept as given, or by
    ``shadow`` from integers over one denominator: ``form`` holds the alphas
    and interval ends over den and the indices of the intersection's ends,
    and each public field but x_coord is built from it when first read.
    """

    __match_args__ = ("i", "j", "alphas", "intervals", "inter_lo",
                      "inter_hi", "x_coord", "u_i", "u_j")

    def __init__(self, i: int, j: int, alphas: Tuple[Scalar, ...],
                 intervals: Tuple[Tuple[Scalar, Scalar], ...],
                 inter_lo: Scalar, inter_hi: Scalar, x_coord: Scalar,
                 u_i: Scalar, u_j: Scalar):
        self.i, self.j, self.form, self.x_coord = i, j, None, x_coord
        # stored where cached_property keeps its values, so read as given
        vars(self).update(alphas=alphas, intervals=intervals,
                          inter_lo=inter_lo, inter_hi=inter_hi, u_i=u_i,
                          u_j=u_j)

    @classmethod
    def _over(cls, i: int, j: int, form: tuple,
              x_coord: Scalar) -> "ShadowData":
        """The shadow with its integer form and common point x."""
        sd = cls.__new__(cls)
        sd.i, sd.j, sd.form, sd.x_coord = i, j, form, x_coord
        return sd

    @cached_property
    def alphas(self) -> Tuple[Scalar, ...]:       # alpha_i = 0
        alphas, _, _, den = self.form[:4]
        return tuple(Fraction(v, den) for v in alphas)

    @cached_property
    def intervals(self) -> Tuple[Tuple[Scalar, Scalar], ...]:
        _, lows, highs, den = self.form[:4]
        return tuple((Fraction(lo, den), Fraction(hi, den))
                     for lo, hi in zip(lows, highs))

    @cached_property
    def inter_lo(self) -> Scalar:
        _, lows, _, den, lo_idx, _ = self.form
        return Fraction(lows[lo_idx], den)

    @cached_property
    def inter_hi(self) -> Scalar:
        _, _, highs, den, _, hi_idx = self.form
        return Fraction(highs[hi_idx], den)

    @cached_property
    def u_i(self) -> Scalar:                      # x - v_i = u_i * r
        x, alphas, den = self.x_coord, self.form[0], self.form[3]
        return Fraction(x.numerator * den - alphas[self.i] * x.denominator,
                        x.denominator * den)

    @cached_property
    def u_j(self) -> Scalar:                      # v_j - x = u_j * r
        x, alphas, den = self.x_coord, self.form[0], self.form[3]
        return Fraction(alphas[self.j] * x.denominator - x.numerator * den,
                        x.denominator * den)


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


def build_frame(arr: Arrangement, i: int, j: int) -> ProjectionFrame:
    """Frame for the pair (i, j); the centers must differ.

    Exact centers on an exact body take the frame of the integer difference
    P_j - P_i = q*(v_j - v_i): r = u/gauge(u) and the active facet do not
    change when u is scaled by q > 0.
    """
    if arr.form and arr.body.exact:
        rows, d = arr.form[0], arr.dim
        diff = Vector(map(operator.sub, rows[j][:d], rows[i][:d]))
    else:
        diff = arr.members[j].center - arr.members[i].center
    if diff.is_zero():
        raise ValueError("coincident centers: members %d and %d" % (i, j))
    return ProjectionFrame(i, j, *arr.body.boundary_frame(diff))


def shadow(arr: Arrangement, frame: ProjectionFrame) -> ShadowData:
    """Project every member onto the frame's line, in r-units.

    The shadow of v_k + lam_k K is exactly [alpha_k - lam_k, alpha_k + lam_k]
    because K lies between the supporting hyperplanes at r and -r and both
    endpoints are attained.  The common point is the midpoint of the interval
    intersection (the first largest low end and the first smallest high
    end); shadow_with_x moves it to any other point of it.
    """
    a, d, i, j = frame.f_normal, frame.f_normal.dim, frame.i, frame.j
    exact = arr.form and frame.a_form
    if exact:  # a = A/f and a.r = 1: alpha_k = (A.P_k - A.P_i)/(f*q)
        (z, f), (rows, q) = frame.a_form, arr.form
        t = [_dot(z, row) for row in rows]
        alphas = [t_k - t[i] for t_k in t]      # all over f*q
        lams = [row[d] * f for row in rows]
    else:
        vi, denom = arr.members[i].center, a.dot(frame.r_vec)
        alphas = [div(a.dot(h.center - vi), denom) for h in arr.members]
        lams = [h.ratio for h in arr.members]
    lows = [al - lam for al, lam in zip(alphas, lams)]
    highs = [al + lam for al, lam in zip(alphas, lams)]
    lo_idx, hi_idx = lows.index(max(lows)), highs.index(min(highs))
    lo, hi = lows[lo_idx], highs[hi_idx]
    if scalars.gt(lo, hi):
        raise ShadowIntersectionError((lo_idx, hi_idx))
    if exact:
        form = alphas, lows, highs, f * q, lo_idx, hi_idx
        return ShadowData._over(i, j, form, Fraction(lo + hi, 2 * f * q))
    x_coord = div(lo + hi, 2)
    return ShadowData(i, j, tuple(alphas), tuple(zip(lows, highs)), lo, hi,
                      x_coord, x_coord - alphas[i], alphas[j] - x_coord)


def shadow_with_x(sd: ShadowData, x_coord: Scalar) -> ShadowData:
    """The same shadow re-pointed at another common point of the intervals."""
    if sd.form and scalars.is_exact(x_coord):  # x = X/e: lo*e <= X*den <= hi*e
        _, lows, highs, den, lo_idx, hi_idx = sd.form
        x, e = x_coord.numerator * den, x_coord.denominator
        if not lows[lo_idx] * e <= x <= highs[hi_idx] * e:
            raise ValueError("x_coord lies outside the interval intersection")
        return ShadowData._over(sd.i, sd.j, sd.form, x_coord)
    if scalars.lt(x_coord, sd.inter_lo) or scalars.gt(x_coord, sd.inter_hi):
        raise ValueError("x_coord lies outside the interval intersection")
    return ShadowData(sd.i, sd.j, sd.alphas, sd.intervals, sd.inter_lo,
                      sd.inter_hi, x_coord, x_coord - sd.alphas[sd.i],
                      sd.alphas[sd.j] - x_coord)


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


def unlift(y: Vector) -> Tuple[Vector, Scalar]:
    """Recover (center, ratio) from a lifted point; exact in rational mode."""
    s = y[-1]
    if scalars.le(s, 0):
        raise ValueError("lifted points have positive last coordinate")
    return Vector(div(c, s) for c in y.coords[:-1]), div(1, s)


class SlabPair:
    """Parallel-plane data of one pair in the lifted space (dim d+1).

    The normal is the closed form (a, -a.v_i - x) of the module docstring,
    possibly negated, at the scale of the offset-1 supporting plane (outer
    offsets -1 and +1) rather than unit Euclidean length; every check
    performed on a slab is a ratio of offsets along the same normal, which
    is scale-invariant.  Orientation satisfies normal . y_i <= normal . y_j.

    ``plane`` is (M, k_ij, k_ji, g_ij, g_ji): the normal and the four
    offsets over one positive denominator, or None when a value is a float.
    A slab built from its public fields keeps them as given and derives its
    plane; ``slab_pair`` builds it from the plane, and the normal and the
    inner offsets are then the plane divided by |k_ij|, built when first read.
    """

    __match_args__ = ("i", "j", "normal", "c_k_ij", "c_k_ji", "c_g_ij",
                      "c_g_ji")

    def __init__(self, i: int, j: int, normal: Vector, c_k_ij: Scalar,
                 c_k_ji: Scalar, c_g_ij: Scalar, c_g_ji: Scalar):
        self.i, self.j = i, j
        self.c_k_ij = c_k_ij    # outer plane from the wedge plane at i
        self.c_k_ji = c_k_ji    # outer plane from the wedge plane at j
        # stored where cached_property keeps its values, so read as given
        vars(self).update(normal=normal, c_g_ij=c_g_ij, c_g_ji=c_g_ji)
        form = int_form(normal.coords + (c_k_ij, c_k_ji, c_g_ij, c_g_ji))
        self.plane = form and (form[0][:-4], *form[0][-4:])

    @classmethod
    def _over(cls, i: int, j: int, plane: tuple) -> "SlabPair":
        """The slab of a plane form; its outer offsets are -1 and +1."""
        slab, k = cls.__new__(cls), abs(plane[1])
        slab.i, slab.j, slab.plane = i, j, plane
        slab.c_k_ij, slab.c_k_ji = plane[1] // k, plane[2] // k
        return slab

    @cached_property
    def normal(self) -> Vector:
        k = abs(self.plane[1])
        return Vector(Fraction(v, k) for v in self.plane[0])

    @cached_property
    def c_g_ij(self) -> Scalar:     # inner plane through y_i
        return Fraction(self.plane[3], abs(self.plane[1]))

    @cached_property
    def c_g_ji(self) -> Scalar:     # inner plane through y_j
        return Fraction(self.plane[4], abs(self.plane[1]))


def slab_pair(arr: Arrangement, frame: ProjectionFrame,
              sd: ShadowData) -> SlabPair:
    """Build the parallel plane pair of the pair (i, j) from its shadow.

    For the supporting plane a.z = 1 at r and common point x the normal is
    N = (a, -a.v_i - x) with outer offsets -1 (i side) and +1 (j side).
    N.y_k = (alpha_k - x)/lam_k for every member k, so the slab contains
    y_k exactly when x lies in shadow interval k.  The inner planes pass
    through y_i and y_j; they coincide exactly when the width ratio's
    denominator vanishes, and then no slab pair exists.
    """
    a, i, j = frame.f_normal, frame.i, frame.j
    exact = arr.form and frame.a_form and scalars.is_exact(sd.x_coord)
    if exact:
        # (a, x) = (A, X)/f over the lcm f of their denominators:
        # N = (A*q, -A.P_i - X*q)/(f*q)
        (coef, f_a), (rows, q), d = frame.a_form, arr.form, a.dim
        x, e = sd.x_coord.numerator, sd.x_coord.denominator
        f = math.lcm(f_a, e)
        z = [v * (f // f_a) for v in coef]
        m = [v * q for v in z]
        m.append(-_dot(z, rows[i]) - x * (f // e) * q)
        den, s_i, s_j = f * q, rows[i][d], rows[j][d]
        n_i, n_j = (_dot(m[:d], rows[k]) + m[d] * q for k in (i, j))  # M.Y
        gi, gj, s = n_i * s_j, n_j * s_i, s_i * s_j   # over den*s
        flip, flat = gi > gj, gi == gj
    else:
        normal = a.extended(-a.dot(arr.members[i].center) - sd.x_coord)
        c_g_ij, c_g_ji = (normal.dot(_lift_point(h.center, h.ratio))
                          for h in (arr.members[i], arr.members[j]))
        flip, flat = scalars.gt(c_g_ij, c_g_ji), scalars.eq(c_g_ij, c_g_ji)
    if flat:
        raise DegenerateWedgeError("projected pair lies on one hyperplane; "
                                   "the inner planes coincide")
    if exact:
        sg, k = -1 if flip else 1, den * s
        return SlabPair._over(i, j, ([sg * v * s for v in m], -sg * k,
                                     sg * k, sg * gi, sg * gj))
    if flip:
        return SlabPair(i, j, -normal, 1, -1, -c_g_ij, -c_g_ji)
    return SlabPair(i, j, normal, -1, 1, c_g_ij, c_g_ji)


def verify_slab(lifted: LiftedConfig, slab: SlabPair) -> Tuple[bool, Optional[int]]:
    """Check that every lifted point lies between the two outer planes.

    Returns (ok, index of the first point outside or None).  Exact
    containment in rational mode, on the integer forms; in floating mode the
    tolerance is applied to offsets normalized by the Euclidean length of
    the normal.
    """
    if slab.plane and lifted.forms:
        m, lo, hi = slab.plane[0], *sorted(slab.plane[1:3])
        offender = next((k for k, (y, w) in enumerate(lifted.forms)
                         if not lo * w <= _dot(m, y) <= hi * w), None)
    else:
        margin = scalars.tolerance() * math.sqrt(float(slab.normal.norm_sq()))
        c_1, c_2 = slab.c_k_ij, slab.c_k_ji
        lo, hi = min(c_1, c_2) - margin, max(c_1, c_2) + margin
        offender = next((k for k, y in enumerate(lifted.points)
                         if (val := slab.normal.dot(y)) < lo or val > hi),
                        None)
    return offender is None, offender


def width_gaps(slab: SlabPair, lifted: LiftedConfig) -> Tuple[Scalar, Scalar]:
    """(k_ij - k_ji, N.y_i - N.y_j) with N.y read from the lifted points;
    their quotient is the signed width ratio (integers for exact input)."""
    if slab.plane and lifted.forms:
        m, k_ij, k_ji = slab.plane[:3]
        (y_i, w_i), (y_j, w_j) = lifted.forms[slab.i], lifted.forms[slab.j]
        return ((k_ij - k_ji) * w_i * w_j,
                _dot(m, y_i) * w_j - _dot(m, y_j) * w_i)
    n, y = slab.normal, lifted.points
    return slab.c_k_ij - slab.c_k_ji, n.dot(y[slab.i]) - n.dot(y[slab.j])


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
    if slab.plane and scalars.is_exact(expected):
        _, k_ij, k_ji, g_ij, g_ji = slab.plane
        if g_ij == g_ji:
            raise ValueError("inner planes coincide; the ratio is undefined")
        holds = abs(k_ij - k_ji) * expected.denominator \
            == expected.numerator * abs(g_ij - g_ji)
    else:
        gap_g = slab.c_g_ij - slab.c_g_ji
        if scalars.sign(gap_g) == 0:
            raise ValueError("inner planes coincide; the ratio is undefined")
        holds = scalars.eq_rel(abs(div(slab.c_k_ij - slab.c_k_ji, gap_g)),
                               expected)
    if holds and y_i == y_j:
        raise ValueError("lifted points coincide")
    return holds


def cross_ratio(x1, x2, x3, x4) -> Scalar:
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
    return div(num, den)


def trapezoid_combine(theta1: Scalar, theta2: Scalar,
                      a1: Vector, a3: Vector,
                      b1: Vector, b3: Vector) -> Vector:
    """Predicted middle difference for points constrained by
    theta1*(p1 - p2) = theta2*(p2 - p3) on both rails:
    b2 - a2 = theta1/(theta1+theta2)*(b1-a1) + theta2/(theta1+theta2)*(b3-a3).
    """
    total = theta1 + theta2
    if scalars.sign(total) == 0:
        raise ValueError("theta1 + theta2 must be nonzero")
    return (b1 - a1) * div(theta1, total) + (b3 - a3) * div(theta2, total)


def check_central_overlap_ratio(sd: ShadowData, lam_i: Scalar,
                                lam_j: Scalar) -> bool:
    """If the two shadow intervals meet only between the centers then the
    width ratio is at most 2; returns whether that implication held."""
    (lo_i, hi_i), (lo_j, hi_j) = sd.intervals[sd.i], sd.intervals[sd.j]
    lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
    premise = (not scalars.gt(lo, hi)
               and scalars.ge(lo, 0)
               and scalars.le(hi, sd.alphas[sd.j]))
    if not premise:
        return True
    value = ratio(lam_i, lam_j, sd.u_i, sd.u_j)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return scalars.le(value, 2)


def pair_diagnostics(arr: Arrangement, frame: ProjectionFrame,
                     sd: ShadowData) -> dict:
    """JSON-ready dump of the per-pair construction from frame and shadow."""
    rho = ratio(arr.members[frame.i].ratio, arr.members[frame.j].ratio,
                sd.u_i, sd.u_j)
    slab = slab_pair(arr, frame, sd)
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
        "slab": {"normal": [fmt(c) for c in slab.normal],
                 "c_k_ij": fmt(slab.c_k_ij), "c_k_ji": fmt(slab.c_k_ji),
                 "c_g_ij": fmt(slab.c_g_ij), "c_g_ji": fmt(slab.c_g_ji)},
        "slab_contains_all": ok,
        "slab_offender": offender,
    }
