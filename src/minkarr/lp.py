"""The polar system of a V-polytope: its facets, enumerated exactly in every
dimension by double description.

The facets a.z <= 1 of P = conv(V), V closed under negation and spanning,
are the vertices of the polar {a : v.a <= 1 for every v in V}.  The
double-description method (Motzkin, Raiffa, Thompson and Thrall 1953;
Fukuda and Prodon 1996) finds them.  It starts from the parallelotope
|b_i.a| <= 1 on the first d independent rows b_i of V, whose 2^d vertices
are B^-1 s for s in {+-1}^d, and adds the other rows' constraints one at a
time.  Each step keeps the vertices on the satisfied side and cuts every
pair (p, n) across the new plane that is adjacent: no third vertex is tight
on every constraint both are tight on (the combinatorial test), so each new
vertex is tight on that common set and on the new row.

Exact rows run on integers: V comes as integer rows R over one
denominator q, the form the body's validation built, and each vertex of
the polar of R is a homogeneous pair (N, D), N/D with D > 0, reduced by
its gcd; the facet normal is a = q*N/D.  The basis is inverted by
fraction-free Gauss-Jordan (``linalg._int_eliminate``), so the start
vertices come from integers too.  Float rows take the same
loop with ``scalars.TOLERANCE`` deciding each side (``scalars.sign``, as the
hull does), each vertex kept at D = 1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from . import scalars
from .linalg import Vector, _int_eliminate, _rref
from .scalars import Scalar


def polar_facets(rows: Sequence[Sequence[Scalar]], q: Optional[int]):
    """The canonical normals a, a.z <= 1, of the facets of the polytope
    spanned by the points (closed under negation, spanning), one per vertex
    of its polar, and their ``int_rows`` form.  Exact points come in their
    ``int_rows`` form rows/q; float points come as rows with q None and
    give float normals and no integer form."""
    n, d = len(rows), len(rows[0])
    if q is not None:
        def reduced(top, den):
            g = math.gcd(den, *top)
            return tuple(x // g for x in top), den // g
    else:
        def reduced(top, den):
            return tuple(x / den for x in top), 1.0
    # one elimination of [R^T | I] picks the basis rows (its pivots) and
    # leaves a multiple c*(B^-1)^T in the identity's columns: on integer
    # rows a fraction-free one with c its last pivot, made positive, and
    # any c > 0 gives the same reduced vertices
    table = [[row[i] for row in rows] + [int(k == i) for k in range(d)]
             for i in range(d)]
    if q is None:
        basis, scale = _rref(table, n), 1.0
    else:
        basis, scale = _int_eliminate(table, n, jordan=True)
    inverse = [line[n:] for line in table]
    if scale < 0:
        inverse, scale = [[-x for x in line] for line in inverse], -scale
    # each distinct constraint row owns one bit of the tight-set masks
    bits = {}
    for k, b in enumerate(basis):
        bits[tuple(rows[b])] = 1 << 2 * k
        bits[tuple(-x for x in rows[b])] = 1 << 2 * k + 1
    verts = []          # (N, D, mask of the constraints tight there)
    for signs in itertools.product((1, -1), repeat=d):
        top = [scalars.dot(signs, col) for col in zip(*inverse)]
        tight = sum(1 << 2 * k + (s < 0) for k, s in enumerate(signs))
        verts.append(reduced(top, scale) + (tight,))
    for row in map(tuple, rows):
        if row in bits:
            continue
        bit = bits[row] = 1 << len(bits)
        slack = [den - scalars.dot(row, top)
                 for top, den, _ in verts]
        side = list(map(scalars.sign, slack))
        plus = [(v, s) for v, s, c in zip(verts, slack, side) if c > 0]
        minus = [(v, s) for v, s, c in zip(verts, slack, side) if c < 0]
        cut = []
        for (p, sp), (m, sm) in itertools.product(plus, minus):
            common = p[2] & m[2]
            if common.bit_count() < d - 1 or any(
                    v[2] & common == common for v in verts
                    if v is not p and v is not m):
                continue
            top = [sp * a - sm * b for a, b in zip(m[0], p[0])]
            cut.append(reduced(top, sp * m[1] - sm * p[1])
                       + (common | bit,))
        verts = [(top, den, tight | bit if c == 0 else tight)
                 for (top, den, tight), c in zip(verts, side) if c >= 0]
        verts += cut
    if q is None:
        return [Vector(top) for top, _, _ in verts], None
    # a = q*N/D, whose least denominator is D/gcd(D, q) as N/D is reduced
    lcd = math.lcm(*(den // math.gcd(den, q) for _, den, _ in verts))
    facets = [tuple(x * (q * lcd // den) for x in top)
              for top, den, _ in verts]
    return [Vector(Fraction(x, lcd) for x in a) for a in facets], (facets, lcd)
