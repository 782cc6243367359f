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
(P_k, s_k)/q, give y_k = Y_k/w_k with Y_k = (P_k, q) and w_k = s_k > 0; the
shadow puts every alpha_k -+ lam_k over one denominator; a slab's plane
(M, k_ij, k_ji, g_ij, g_ji) is its normal and offsets over one positive
denominator, so y_k lies in the slab exactly when lo*w_k <= M.Y_k <= hi*w_k
(lo <= hi the outer offsets) and the ratio identity is one integer equality.
Objects built by hand derive their forms; a float anywhere keeps the
tolerance loops below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True)
class ShadowData:
    """All members projected to r-units on the line through v_i and v_j."""
    i: int
    j: int
    alphas: Tuple[Scalar, ...]                 # alpha_i = 0 by construction
    intervals: Tuple[Tuple[Scalar, Scalar], ...]
    inter_lo: Scalar
    inter_hi: Scalar
    x_coord: Scalar                            # common point, in r-units
    u_i: Scalar                                # x - v_i = u_i * r
    u_j: Scalar                                # v_j - x = u_j * r


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
    """Frame for the pair (i, j); the centers must differ."""
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
    form = arr.form and int_form(a.coords)
    if form:  # a = A/f and a.r = 1: alpha_k = (A.P_k - A.P_i)/(f*q)
        (z, f), (rows, q) = form, arr.form
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
    if scalars.gt(lows[lo_idx], highs[hi_idx]):
        raise ShadowIntersectionError((lo_idx, hi_idx))
    if form:
        alphas, lows, highs = ([Fraction(v, f * q) for v in values]
                               for values in (alphas, lows, highs))
    lo, hi = lows[lo_idx], highs[hi_idx]
    x_coord = div(lo + hi, 2)
    return ShadowData(i, j, tuple(alphas), tuple(zip(lows, highs)), lo, hi,
                      x_coord, x_coord - alphas[i], alphas[j] - x_coord)


def shadow_with_x(sd: ShadowData, x_coord: Scalar) -> ShadowData:
    """The same shadow re-pointed at another common point of the intervals."""
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


@dataclass(frozen=True)
class SlabPair:
    """Parallel-plane data of one pair in the lifted space (dim d+1).

    The normal is the closed form (a, -a.v_i - x) of the module docstring,
    possibly negated, at the scale of the offset-1 supporting plane (outer
    offsets -1 and +1) rather than unit Euclidean length; every check
    performed on a slab is a ratio of offsets along the same normal, which
    is scale-invariant.  Orientation satisfies normal . y_i <= normal . y_j.
    """
    i: int
    j: int
    normal: Vector
    c_k_ij: Scalar      # outer plane from the wedge plane at the i side
    c_k_ji: Scalar      # outer plane from the wedge plane at the j side
    c_g_ij: Scalar      # inner plane through y_i
    c_g_ji: Scalar      # inner plane through y_j
    plane: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.plane is None:
            form = int_form(self.normal.coords + (self.c_k_ij, self.c_k_ji,
                                                  self.c_g_ij, self.c_g_ji))
            object.__setattr__(self, "plane",
                               form and (form[0][:-4], *form[0][-4:]))


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
    form = arr.form and int_form(a.coords + (sd.x_coord,))
    plane = None
    if form:  # (a, x) = (A, X)/f: N = (A*q, -A.P_i - X*q)/(f*q)
        (coef, f), (rows, q), d = form, arr.form, a.dim
        m = [v * q for v in coef[:d]]
        m.append(-_dot(coef[:d], rows[i]) - coef[d] * q)
        den, s_i, s_j = f * q, rows[i][d], rows[j][d]
        n_i, n_j = (_dot(m[:d], rows[k]) + m[d] * q for k in (i, j))  # M.Y
        normal = a.extended(Fraction(m[-1], den))
        c_g_ij, c_g_ji = Fraction(n_i, den * s_i), Fraction(n_j, den * s_j)
        gi, gj, s = n_i * s_j, n_j * s_i, s_i * s_j   # over den*s
        flip, flat = gi > gj, gi == gj
        sg, k = -1 if flip else 1, den * s
        plane = ([sg * v * s for v in m], -sg * k, sg * k, sg * gi, sg * gj)
    else:
        normal = a.extended(-a.dot(arr.members[i].center) - sd.x_coord)
        c_g_ij, c_g_ji = (normal.dot(_lift_point(h.center, h.ratio))
                          for h in (arr.members[i], arr.members[j]))
        flip, flat = scalars.gt(c_g_ij, c_g_ji), scalars.eq(c_g_ij, c_g_ji)
    if flat:
        raise DegenerateWedgeError("projected pair lies on one hyperplane; "
                                   "the inner planes coincide")
    if flip:
        normal, c_g_ij, c_g_ji = -normal, -c_g_ij, -c_g_ji
    c = -1 if flip else 1
    return SlabPair(i, j, normal, -c, c, c_g_ij, c_g_ji, plane)


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
