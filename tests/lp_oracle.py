"""The independent oracle for V-polytope gauges and frames: a tiny dense
simplex solver and the polar LP.

``simplex_max`` solves  maximize c.x  subject to  A x <= b  with x free and
b >= 0, so the origin is always a feasible start.  Free variables are split
into positive parts and Bland's rule is used throughout, which guarantees
termination and keeps every pivot exact when the data are rational.

``polar_lp`` is the gauge of x on the hull of a vertex list as the linear
program  max x.a  s.t.  v.a <= 1  over the polar body: its value is the
gauge and its maximiser a plane a.z = 1 supporting the body at
x/gauge(x).  The package reads the same body through its facets, the
vertices of that polar; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from minkarr import scalars
from minkarr.scalars import Scalar, div


class UnboundedLP(RuntimeError):
    """The objective is unbounded over the feasible region."""


def simplex_max(obj: Sequence[Scalar],
                rows: Sequence[Sequence[Scalar]],
                rhs: Sequence[Scalar]) -> Tuple[Scalar, List[Scalar]]:
    """Maximize obj.x subject to rows[i].x <= rhs[i]; requires rhs >= 0.

    Returns (optimal value, optimizer).  Raises UnboundedLP when the problem
    is unbounded and ValueError when some rhs entry is negative.
    """
    m = len(rows)
    n = len(obj)
    for b in rhs:
        if scalars.lt(b, 0):
            raise ValueError("simplex_max needs nonnegative right-hand sides")

    def wrap(v):
        return Fraction(v) if isinstance(v, int) else v

    # columns: n "plus" parts, n "minus" parts, m slacks
    width = 2 * n + m
    tab: List[List[Scalar]] = []
    for i in range(m):
        row = [wrap(v) for v in rows[i]]
        line = row + [-v for v in row] + [Fraction(0)] * m + [wrap(rhs[i])]
        line[2 * n + i] = Fraction(1)
        tab.append(line)
    cost = ([wrap(v) for v in obj] + [-wrap(v) for v in obj]
            + [Fraction(0)] * m + [Fraction(0)])
    basis = [2 * n + i for i in range(m)]

    while True:
        enter = None
        for j in range(width):
            if scalars.gt(cost[j], 0):
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if scalars.gt(a, 0):
                ratio = div(tab[i][width], a)
                if (best is None or scalars.lt(ratio, best)
                        or (scalars.eq(ratio, best) and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedLP("unbounded objective direction at column %d" % enter)
        pivot = tab[leave][enter]
        tab[leave] = [div(v, pivot) for v in tab[leave]]
        for i in range(m):
            if i != leave and not scalars.eq(tab[i][enter], 0):
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [v - f * w for v, w in zip(cost, tab[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * (2 * n)
    for i, bv in enumerate(basis):
        if bv < 2 * n:
            x[bv] = tab[i][width]
    solution = [x[k] - x[n + k] for k in range(n)]
    # the cost row's rhs accumulates -(objective value) across pivots
    return -cost[width], solution


def polar_lp(vertices, x) -> Tuple[Scalar, List[Scalar]]:
    """max x.a s.t. a.v <= 1 for every vertex v: the gauge of x on the hull
    of the vertices and a maximiser a."""
    return simplex_max(list(x), [v.coords for v in vertices],
                       [1] * len(vertices))


def gauge_lp(body, x) -> Scalar:
    """The gauge of x on a V-polytope body through its polar LP."""
    return polar_lp(body.vertices, x)[0]
