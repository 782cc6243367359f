"""Origin-symmetric convex bodies: the gauge and the ball's boundary frame.

A body is the unit ball of the norm it induces: the gauge of x is the least
lambda >= 0 with x in lambda*K, a norm; ``distance_table`` takes it once
per pair of points for the predicates, the search, the generators and the
chains.  On exact points of an exact body that is ``int_distance_table``:
one ``int_projections`` per integer row, the dots h.p over the body's
``half_rows`` (one row h of each +- facet pair), and per pair of points the
largest absolute difference of two projections, as the gauge of an
o-symmetric polytope is max_h |h.x|; ``gauge`` is the route of float points
and float bodies.  The same projections give an exact arrangement its
frames and shadows (``Arrangement.projections``, read by ``lifting``): the
facet of the pair (i, j) is the half row h with the largest |h.(P_j - P_i)|,
signed s, ties to the lexicographically least facet s*h.  Any other
polytope arrangement (float facets, or a float among the members) reads
its frames from one matrix of facet projections a.(p_k - p_0)
(``Arrangement.facet_projections``) and its distances from the same rows
(``facet_distances``).  Only the ball has a ``boundary_frame`` toward
u != 0: the gauge-1 point r = u/|u| and its supporting plane r.z = 1.
Three variants:

* ``HPolytopeBody`` -- intersection of halfspaces a.x <= 1 (facets are stored
  in offset-1 canonical form), central symmetry means the facet list is
  closed under normal negation; with exact facets the gauge of an integer
  vector is read from its integer projections (see
  ``HPolytopeBody.int_projections``);
* ``VPolytopeBody`` -- convex hull of a vertex list closed under negation;
  an ``HPolytopeBody`` whose facets are the vertices of the polar, found by
  double description (``lp.polar_facets``) in every dimension from the
  integer form the one validation of the vertices built;
* ``BallBody`` -- the Euclidean unit ball (floating mode).

All bodies are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import lp, scalars
from .linalg import Vector, _int_rank, matrix_rank
from .scalars import Scalar, parse_scalar, format_scalar


class BodyError(ValueError):
    """Invalid body data (asymmetry, unboundedness, empty interior...)."""


class SymmetricBody:
    """Common interface: ``gauge``.

    ``exact`` says that it is exact on exact vectors (no float facet or
    vertex), so it scales with the vector exactly: gauge(q*u) = q*gauge(u)
    for q > 0.  An exact body also
    answers ``int_projections`` over its ``half_rows``, and since those are
    linear in the vector, gauge(p - p') is the largest absolute difference
    of the projections of p and p'.
    """

    dim: int
    exact = False

    def gauge(self, x: Vector) -> Scalar:
        raise NotImplementedError

    def int_projections(self, p: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
        """(proj, den) for an integer vector p, with den > 0 and gauge(p) =
        max(map(abs, proj))/den; exact bodies only."""
        raise NotImplementedError

    def as_float(self) -> "SymmetricBody":
        """The body with every stored scalar a float, for the float route;
        the ball has none and is itself."""
        return self

    def _check_dim(self, x: Vector) -> None:
        if x.dim != self.dim:
            raise ValueError("dimension mismatch: body is %d-dimensional, "
                             "vector is %d-dimensional" % (self.dim, x.dim))

    def to_json(self) -> dict:
        raise NotImplementedError


def distance_table(body: SymmetricBody,
                   points: Sequence[Vector]) -> List[List[Scalar]]:
    """D[i][j] = D[j][i] = gauge(p_j - p_i) for i < j, 0 on the diagonal:
    one gauge per unordered pair, as gauge(-x) = gauge(x).  Exact points
    P/q of an exact body take ``int_distance_table``, one
    ``int_projections`` per point; any other takes ``gauge`` of p_j - p_i."""
    for p in points:
        body._check_dim(p)
    form = points and body.exact and scalars.int_rows(
        [p.coords for p in points])
    if form:
        return fraction_table(int_distance_table(body, *form))
    table: List[List[Scalar]] = [[0] * len(points) for _ in points]
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            table[i][j] = table[j][i] = body.gauge(points[j] - p)
    return table


def int_distance_table(body: SymmetricBody, rows: Sequence[Sequence[int]],
                       q: int) -> List[List[Tuple[int, int]]]:
    """The distances of the points rows[k]/q of an exact body as integer
    pairs: D[i][j] = D[j][i] = (t, e) with gauge = t/e, (0, 1) on the
    diagonal.  Each point takes one ``int_projections``."""
    return projection_distances([body.int_projections(p) for p in rows], q)


def projection_distances(projections: Sequence[Tuple[Tuple[int, ...], int]],
                         q: int) -> List[List[Tuple[int, int]]]:
    """The ``int_distance_table`` of points rows[k]/q from their
    ``int_projections``: a pair's t is the largest absolute difference of
    its two projections."""
    table = [[(0, 1)] * len(projections) for _ in projections]
    for i, (p, den) in enumerate(projections):
        for j in range(i + 1, len(projections)):
            top = max(map(abs, map(operator.sub, projections[j][0], p)))
            table[i][j] = table[j][i] = (top, den * q)
    return table


def facet_distances(rows: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    """The ``distance_table`` of points from their rows U_k[a] = a.(p_k - p_0)
    over every canonical facet a of a polytope body: gauge(p_j - p_i) =
    max_a a.(p_j - p_i), the largest difference of two rows, for i < j."""
    table: List[List[Scalar]] = [[0] * len(rows) for _ in rows]
    for i, u in enumerate(rows):
        for j in range(i + 1, len(rows)):
            table[i][j] = table[j][i] = max(map(operator.sub, rows[j], u))
    return table


def fraction_table(table) -> List[List[Scalar]]:
    """The gauges t/e of an ``int_distance_table``, int 0 for t = 0."""
    return [[Fraction(t, e) if t else 0 for t, e in row] for row in table]


def _canonical_facet(normal: Vector, offset: Scalar) -> Vector:
    if scalars.le(offset, 0):
        raise BodyError("facet offsets must be positive (origin interior)")
    return normal / offset


def _symmetric_form(dim: int, vectors: Sequence[Vector], kind: str,
                    degenerate: str):
    """Check that the vectors (facet normals or vertices) are closed under
    negation and span R^dim, and return their integer form ``int_rows``
    (None when one is a float).  Exact rows look up each negated row in a
    set and take the fraction-free rank of those integer rows; float rows
    compare within ``scalars.TOLERANCE``."""
    if dim < 1:
        raise BodyError("dimension must be positive")
    if not vectors:
        raise BodyError("a polytope needs %s" % kind)
    if any(v.dim != dim for v in vectors):
        raise BodyError("%s dimension mismatch" % kind)
    form = scalars.int_rows([v.coords for v in vectors])
    if form:
        rows = set(form[0])
        closed = all(tuple(-x for x in r) in rows for r in rows)
    else:
        closed = all(any(-v == w for w in vectors) for v in vectors)
    if not closed:
        raise BodyError("%s are not closed under negation; body would not "
                        "be o-symmetric" % kind)
    rank = _int_rank(list(form[0]), dim) if form \
        else matrix_rank([v.coords for v in vectors])
    if rank < dim:
        raise BodyError("%s do not span the space; body would %s"
                        % (kind, degenerate))
    return form


class HPolytopeBody(SymmetricBody):
    """Bounded symmetric polytope given by facets a.x <= offset.

    Facets are normalized to offset 1 on construction, so ``facets`` is just
    the list of canonical normals.  The representation is assumed
    irredundant: every facet touches the body.  Constructors in this package
    (cube, cross-polytope, the polar of a vertex list) guarantee that.
    """

    def __init__(self, dim: int, facets: Sequence[Tuple[Vector, Scalar]]):
        normals: List[Vector] = []
        for normal, offset in facets:
            if normal.is_zero():
                raise BodyError("zero facet normal")
            normals.append(_canonical_facet(normal, offset))
        self._set_facets(dim, normals, _symmetric_form(
            dim, normals, "facet normals", "be unbounded"))

    def _set_facets(self, dim: int, normals: Sequence[Vector],
                    form) -> None:
        """Keep the canonical normals and, from their ``int_rows`` form
        (integer rows over one common denominator, None when a normal is a
        float), the denominator and ``half_rows``: one row of each +- pair
        (the greater of the two, duplicates removed), which
        ``int_projections`` reads, so the facet a = s*h/D of the sign s and
        the half row h is column h of the projections."""
        self.dim = dim
        self.facets: Tuple[Vector, ...] = tuple(normals)
        self._den = form and form[1]
        self.half_rows = form and tuple(dict.fromkeys(
            max(row, tuple(-x for x in row)) for row in form[0]))
        self.exact = form is not None

    def int_projections(self, p: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
        """The dots h.p over the half rows h, over D, the rows' common
        denominator: the rows are closed under negation, so max_k rows_k.p
        = max_h |h.p| (at least 0)."""
        return tuple([sum(map(operator.mul, h, p))
                      for h in self.half_rows]), self._den

    def as_float(self) -> "HPolytopeBody":
        """An ``HPolytopeBody`` on the canonical normals with each coordinate
        a float, not validated again: float(-x) == -float(x), so the normals
        stay closed under negation.  A ValueError names a coordinate beyond
        the float range or nonzero below it (``scalars.check_float_range``)."""
        scalars.check_float_range([c for a in self.facets for c in a], True)
        body = HPolytopeBody.__new__(HPolytopeBody)
        body._set_facets(self.dim, [Vector(map(float, a))
                                    for a in self.facets], None)
        return body

    def gauge(self, x: Vector) -> Scalar:
        """max(0, max_a a.x) over the canonical facets, int 0 when no facet
        is positive (exact point tables take ``int_projections``)."""
        self._check_dim(x)
        best: Scalar = 0
        for a in self.facets:
            v = sum(map(operator.mul, a.coords, x.coords))
            if scalars.gt(v, best):
                best = v
        return best if scalars.gt(best, 0) else 0

    def to_json(self) -> dict:
        return {"dim": self.dim, "type": "hpoly",
                "facets": [{"normal": [format_scalar(c) for c in a.coords],
                            "offset": 1} for a in self.facets]}

    def __repr__(self) -> str:
        return "HPolytopeBody(dim=%d, facets=%d)" % (self.dim, len(self.facets))


class VPolytopeBody(HPolytopeBody):
    """Symmetric polytope given as the hull of a vertex list.

    Its facets are the vertices of the polar, which ``lp.polar_facets``
    enumerates in every dimension, so the gauge, ``int_projections`` and the
    frame are those of the facet form; ``vertices`` keeps the list as given.
    """

    def __init__(self, dim: int, vertices: Sequence[Vector]):
        self.vertices: Tuple[Vector, ...] = tuple(vertices)
        form = _symmetric_form(dim, self.vertices, "vertices",
                               "have empty interior")
        self._set_facets(dim, *lp.polar_facets(
            *(form or ([v.coords for v in self.vertices], None))))

    def to_json(self) -> dict:
        return {"dim": self.dim, "type": "vpoly",
                "vertices": [[format_scalar(c) for c in v.coords]
                             for v in self.vertices]}

    def __repr__(self) -> str:
        return "VPolytopeBody(dim=%d, vertices=%d)" % (self.dim, len(self.vertices))


class BallBody(SymmetricBody):
    """Euclidean unit ball; all derived quantities are floating point."""

    def __init__(self, dim: int):
        if dim < 1:
            raise BodyError("dimension must be positive")
        self.dim = dim

    def gauge(self, x: Vector) -> float:
        """sqrt of the float squared norm, or hypot where it is no float."""
        self._check_dim(x)
        try:
            square = float(x.norm_sq())
        except OverflowError:   # an exact square beyond the float range
            square = math.inf
        if sys.float_info.min <= square < math.inf:
            return math.sqrt(square)
        return math.hypot(*map(float, x.coords))

    def boundary_frame(self, u: Vector) -> Tuple[Vector, Vector]:
        """(r, a) toward u != 0: r = u/|u| on the boundary and its
        supporting plane a.z = 1, a = r in floats."""
        g = self.gauge(u)
        if scalars.eq(g, 0):
            raise ValueError("a boundary frame needs a nonzero direction")
        r_vec = u / g
        return r_vec, Vector(float(c) for c in r_vec.coords)

    def to_json(self) -> dict:
        return {"dim": self.dim, "type": "ball"}

    def __repr__(self) -> str:
        return "BallBody(dim=%d)" % self.dim


def linf_ball(dim: int) -> HPolytopeBody:
    """The cube [-1, 1]^d, unit ball of the max norm."""
    facets = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        facets.append((Vector(e), 1))
        facets.append((Vector([-c for c in e]), 1))
    return HPolytopeBody(dim, facets)


def l1_ball(dim: int) -> HPolytopeBody:
    """The cross-polytope, unit ball of the sum norm (2^d facets)."""
    facets = []
    for mask in range(2 ** dim):
        normal = Vector([Fraction(1) if (mask >> i) & 1 == 0 else Fraction(-1)
                         for i in range(dim)])
        facets.append((normal, 1))
    return HPolytopeBody(dim, facets)


def body_from_json(obj: dict) -> SymmetricBody:
    """Load a body from its JSON form; symmetry is validated and load fails
    loudly on any violation."""
    try:
        dim = scalars.parse_dim(obj["dim"])
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise BodyError("body JSON needs 'dim' and 'type'") from exc
    if kind == "ball":
        return BallBody(dim)
    if kind == "hpoly":
        facets = _entries(obj, "facets", lambda f: (
            _vector(f["normal"]), parse_scalar(f.get("offset", 1))))
        scalars.check_float_range([x for a, b in facets
                                   for x in a.coords + (b,)])
        return HPolytopeBody(dim, facets)
    if kind == "vpoly":
        vertices = _entries(obj, "vertices", _vector)
        scalars.check_float_range([x for v in vertices for x in v])
        return VPolytopeBody(dim, vertices)
    raise BodyError("unknown body type %r" % (kind,))


def _vector(coords) -> Vector:
    return Vector(parse_scalar(c) for c in coords)


def _entries(obj: dict, key: str, parse) -> list:
    """Every entry of obj[key] (none when absent) parsed; an entry of the
    wrong shape is a BodyError."""
    try:
        return [parse(entry) for entry in obj.get(key, [])]
    except (KeyError, TypeError) as exc:
        raise BodyError("malformed %s list: %s: %s"
                        % (key, type(exc).__name__, exc)) from exc


def body_to_json(body: SymmetricBody) -> dict:
    return body.to_json()
