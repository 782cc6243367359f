"""Homothet families: predicates, generators, the ratio partition and search.

A family {v_i + lam_i K} is a Minkowski arrangement when no member contains
another member's center in its interior, and it is pairwise intersecting when
every two members meet.  Closed bodies are used throughout, so touching
counts as intersecting while a center sitting exactly on a boundary does not
violate the arrangement condition.  Both conditions read one distance per
pair, D[i][j] = gauge(v_j - v_i) in the arrangement's own ``relations``:
max(lam_i, lam_j) <= D[i][j] <= lam_i + lam_j.  Every polytope arrangement
reads them from its one projection matrix, ``projections``, over the body's
half rows: on exact centers and ratios of an exact body the distances are
integer pairs t/e and the ratios s_k/q, and each comparison is one
cross-multiplied integer comparison; any other takes them in its own
scalars.  Only the ball takes one gauge per pair.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import scalars
from .bodies import (HPolytopeBody, SymmetricBody, _vector, body_from_json,
                     body_to_json, distance_table, linf_ball,
                     projection_distances)
from .kdistance import chain_violation
from .linalg import Vector, zero_vector
from .scalars import Scalar, div, format_scalar, parse_scalar


class Homothet:
    """One positive homothet center + lam * K."""
    __slots__ = ("center", "ratio")

    def __init__(self, center: Vector, ratio: Scalar):
        if scalars.le(ratio, 0):
            raise ValueError("homothety ratios must be positive")
        self.center = center
        self.ratio = ratio


class Arrangement:
    """The family {v_i + lam_i K}; its cached properties live in the
    instance ``__dict__``."""

    def __init__(self, body: SymmetricBody, members: Tuple[Homothet, ...]):
        if not members:
            raise ValueError("arrangements need at least one homothet")
        for h in members:
            if h.center.dim != body.dim:
                raise ValueError("homothet center dimension mismatch")
        self.body = body
        self.members = members
        # (rows, q) with (v_k, lam_k) = rows[k]/q; None if any value is a float
        self.form = scalars.int_rows(
            [h.center.coords + (h.ratio,) for h in members])

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def exact(self) -> bool:
        """Whether the centers, the ratios and the body are exact: the
        route of the integer projections."""
        return self.form is not None and self.body.exact

    @cached_property
    def anchor(self) -> Vector:
        """The center the projections of an inexact arrangement are
        anchored at: the first exact one, if any, so that on an exact body
        the exact centers keep exact rows; else the first center."""
        return next((h.center for h in self.members
                     if scalars.is_exact(*h.center.coords)),
                    self.members[0].center)

    @cached_property
    def projections(self) -> Optional[List[Tuple[tuple, int]]]:
        """The arrangement's one projection matrix, a row (U_k, den) per
        member over the body's half rows h, when the body is a polytope;
        None for any other.  An ``exact`` arrangement takes each center's
        ``int_projections``, U_k[h] = h.P_k over den = D, rows[k] read over
        the form's q.  Any other has U_k[h] = a_h.(v_k - v_0) over den = 1
        in the scalars the facets and centers hold, a_h = h/D the canonical
        facet of half row h and v_0 the ``anchor``: its rounding scales with
        the spread of the centers, not with their distance from the origin.
        The distances, the frames, the shadows and the slabs read it."""
        body = self.body
        if self.exact:
            return [body.int_projections(row[:-1]) for row in self.form[0]]
        if not isinstance(body, HPolytopeBody):
            return None
        facets = [a.coords for a, _ in body.half_facets]
        v0 = self.anchor.coords
        return [(tuple([scalars.dot(a, d) for a in facets]), 1)
                for d in (tuple(map(operator.sub, h.center.coords, v0))
                          for h in self.members)]

    @cached_property
    def relations(self):
        """What both predicates compare, computed on first use and kept:
        the arrangement's one distance table, pairs (t, e) with D = t/e,
        the ratios as numerators s_k over one denominator q, and the
        comparisons lt and le, the cross-multiplied form of
        ``_SearchState``.  An ``exact`` arrangement takes the
        ``projection_distances`` of its ``projections`` over the form's q,
        its ratio column and the plain operators; any other those of its
        ``projections`` over 1, or the ball one gauge per pair, its ratios
        over q = 1 and ``scalars.lt``/``le``."""
        if self.exact:
            rows, q = self.form
            return (projection_distances(self.projections, q),
                    [row[-1] for row in rows], q, operator.lt, operator.le)
        if self.projections is None:
            table = [[(g, 1) for g in row] for row in distance_table(
                self.body, [h.center for h in self.members])]
        else:
            table = projection_distances(self.projections, 1)
        return (table, [h.ratio for h in self.members], 1, scalars.lt,
                scalars.le)


def find_minkowski_violation(arr: Arrangement) -> Optional[Tuple[int, int]]:
    """First (owner, center) index pair violating the arrangement condition,
    center j interior to member i: D[i][j] < lam_i, or t*q < s_i*e."""
    table, s, q, lt, _ = arr.relations
    for i, row in enumerate(table):
        for j, (t, e) in enumerate(row):
            if i != j and lt(t * q, s[i] * e):
                return (i, j)
    return None


def find_intersection_violation(arr: Arrangement) -> Optional[Tuple[int, int]]:
    """First pair i < j of members that do not meet: D[i][j] > lam_i +
    lam_j, or t*q > (s_i + s_j)*e."""
    table, s, q, _, le = arr.relations
    for i, row in enumerate(table):
        for j in range(i + 1, len(row)):
            t, e = row[j]
            if not le(t * q, (s[i] + s[j]) * e):
                return (i, j)
    return None


def cube_arrangement(dim: int) -> Arrangement:
    """3^d unit cubes centered on {-1,0,1}^d: the classical tight family."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    body = linf_ball(dim)
    members = tuple(Homothet(Vector([Fraction(c) for c in center]), Fraction(1))
                    for center in product((-1, 0, 1), repeat=dim))
    return Arrangement(body, members)


class ChainPropertyError(ValueError):
    """Points failing gauge(v_i - v_j) == lam_i for some i < j."""

    def __init__(self, i: int, j: int, got: Scalar, expected: Scalar):
        self.pair = (i, j)
        super().__init__("chain property violated at pair (%d, %d): "
                         "gauge %s, expected %s" % (i, j, got, expected))


def chain_to_arrangement(points: Sequence[Vector], lambdas: Sequence[Scalar],
                         body: SymmetricBody) -> Arrangement:
    """Family {v_i + lam_i K} from a decreasing-distance chain, with the last
    ratio repeating the previous one; always pairwise intersecting."""
    n = len(points)
    if n < 2:
        raise ValueError("chains need at least two points")
    if len(lambdas) != n - 1:
        raise ValueError("expected %d lambdas, got %d" % (n - 1, len(lambdas)))
    ratios = list(lambdas) + [lambdas[-1]]
    arr = Arrangement(body, tuple(Homothet(p, r)
                                  for p, r in zip(points, ratios)))
    table = [[div(t, e) for t, e in row] for row in arr.relations[0]]
    pair = chain_violation(table, lambdas)
    if pair is not None:
        i, j = pair
        raise ChainPropertyError(i, j, table[i][j], lambdas[i])
    return arr


class PartitionLabel(NamedTuple):
    """Class l in [d] and block k >= 1 of the geometric ratio partition."""
    l: int
    k: int


def partition_classes(lambdas: Sequence[Scalar], dim: int) -> List[PartitionLabel]:
    """Label each ratio by the interval of the mu-grid that contains it.

    A ratio belongs to class l and block k when it lies in
    (mu^((k-1)d + l), mu^((k-1)d + l - 1)] for mu = 2^(-1/(d-1)).  Inputs
    with maximum above 1 are first divided by that maximum; inputs already in
    (0, 1] are taken as normalized and labeled as given.  Exact ratios are
    labeled exactly: x = lam/top lies in (mu^e, mu^(e-1)] exactly when
    2^(-e) < x^(d-1) <= 2^(-(e-1)), an integer comparison.  Float ratios are
    labeled with base-mu logarithms; values within ``scalars.TOLERANCE`` of
    an interval endpoint snap to the endpoint (intervals are right-closed).
    """
    if dim < 2:
        raise ValueError("the partition needs dimension >= 2")
    if not lambdas:
        return []
    for lam in lambdas:
        if scalars.le(lam, 0):
            raise ValueError("ratios must be positive")
    top = max(max(lambdas), 1)
    mu = 2 ** (-1 / (dim - 1))
    log_mu = math.log(mu)
    labels = []
    for lam in lambdas:
        # exponent: lam/top in (mu^exponent, mu^(exponent-1)]
        if scalars.is_exact(lam, top):
            # (lam/top)^(d-1) = p/q <= 1, and exponent - 1 = floor(log2(q/p))
            # is b or b - 1 for b the difference of the bit lengths
            y = (Fraction(lam) / top) ** (dim - 1)
            p, q = y.numerator, y.denominator
            b = q.bit_length() - p.bit_length()
            exponent = b + 1 if q >= p << b else b
        else:
            x = float(div(lam, top))
            t = math.log(x) / log_mu if x != 1.0 else 0.0
            nearest = round(t)
            if abs(t - nearest) <= scalars.TOLERANCE:
                t = float(nearest)
            exponent = max(math.floor(t) + 1, 1)
        labels.append(PartitionLabel(l=(exponent - 1) % dim + 1,
                                     k=(exponent - 1) // dim + 1))
    return labels


def arrangement_size_bound(dim: int) -> int:
    """Upper bound 3^(d+1) for pairwise intersecting Minkowski arrangements."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return 3 ** (dim + 1)


class SearchConfig:
    __slots__ = ("seed", "iterations")

    def __init__(self, seed: int = 0, iterations: int = 200):
        if iterations < 0:
            raise ValueError("search iterations must be non-negative, got %d"
                             % iterations)
        self.seed = seed
        self.iterations = iterations


# center draws per insertion, iterations without one before a drop, ratio
# steps, the least inserted ratio, and the grids of the drawn centers (1/4)
# and of the weights placing a new ratio between its bounds (1/8)
INSERT_ATTEMPTS = 4
STAGNATION_LIMIT = 25
RATIO_STEPS = (Fraction(3, 4), Fraction(5, 6), Fraction(6, 5), Fraction(4, 3))
MIN_RATIO = Fraction(1, 8)
CENTER_GRID = 4
WEIGHT_GRID = 8
# the largest magnitude of a box bound, so that bound*CENTER_GRID is a float
# and ``_draw_range`` can round it
BOX_LIMIT = sys.float_info.max / CENTER_GRID


def _feasible(body: SymmetricBody, members: Sequence[Homothet]) -> bool:
    arr = Arrangement(body, tuple(members))
    return (find_minkowski_violation(arr) is None
            and find_intersection_violation(arr) is None)


def check_warm_start(body: SymmetricBody, warm_start: Arrangement) -> None:
    """Raise ValueError unless the warm start's members, read on ``body``,
    are a pairwise intersecting Minkowski arrangement."""
    if not _feasible(body, warm_start.members):
        raise ValueError("warm start is not a valid arrangement")


def _draw_range(lo: float, hi: float,
                denom: int = CENTER_GRID) -> Tuple[int, int, int]:
    """The numerators k of the grid points k/denom in [lo, hi] as a draw
    range (lo_n, n, n.bit_length()): k = lo_n + r for r in 0..n-1, and
    n = 1 (the first grid point above lo) when no grid point is in it."""
    lo_n = math.ceil(lo * denom)
    n = max(math.floor(hi * denom) - lo_n, 0) + 1
    return lo_n, n, n.bit_length()


def _below(getrandbits, n: int) -> int:
    """r in 0..n-1 drawn as r = getrandbits(k), k = n.bit_length(), redrawn
    while r >= n: the draws ``rng.randrange(n)`` makes on CPython 3.10-3.13
    (through ``_randbelow_with_getrandbits``, which draws k bits even for
    n = 1), so the stream is the same without depending on them."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _grid_fraction(rng: random.Random, lo: float, hi: float,
                   denom: int = CENTER_GRID) -> int:
    """The numerator k of a grid point k/denom drawn in [lo, hi] (the first
    grid point above lo when no grid point is in it): lo_n + ``_below(n)``
    for the ``_draw_range`` (lo_n, n, k), the draws ``rng.randint`` makes
    for the same range."""
    lo_n, n, _ = _draw_range(lo, hi, denom)
    return lo_n + _below(rng.getrandbits, n)


class _SearchState:
    """The distances and ratios that decide every search move.

    A distance is a pair (t, e) with D = t/e and a ratio a pair (a, b)
    with lam = a/b.  Exact members of an exact body take the exact route:
    the centers are integer rows P/q over q = lcm(4, start denominators),
    so every grid center k/4 is the row k*q/4, ``proj`` keeps each
    member's ``int_projections``, every distance is over the one e =
    den*q, and each member keeps its caps ``ceils`` = ceil(a*e/b) and
    ``floors`` = floor(a*e/b).  Any other body, or float members, take the
    scalar route: the rows and ``proj`` are the center coordinates with
    q = e = 1, a distance is (gauge(c - v), 1), and a ratio (lam, 1) is
    its own ceiling and floor.

    ``insert`` decides a candidate center on the caps on both routes: with
    tmin the least t_j, it is refused when tmin < ``least``
    (ceil(e*``MIN_RATIO``), or ``MIN_RATIO``), when t_j < ceils_j (it is
    interior to member j) or when t_j - floors_j > tmin (the lower bound
    t_j/e - lam_j exceeds tmin/e).  The routes differ in two places, set
    by ``exact``: where the distances come from (one projection of the
    center, then subtractions only; or one gauge per member, up to the
    first member whose ceiling refuses the center) and how a drawn ratio
    is built (one Fraction; or low + (high - low)*k/8 in the scalars,
    infeasible beyond the float range, as is such a rescaling).  A
    rescaling compares with ``scalars.lt``/``le``, the plain comparisons
    on exact values.  The float box the centers are drawn in is kept, and
    taken again, as a new object, after an accepted insertion, an accepted
    rescaling and a drop.
    """

    def __init__(self, body: SymmetricBody, members: List[Homothet]):
        form = body.exact and scalars.int_rows(
            [h.center.coords + (h.ratio,) for h in members])
        self.exact = bool(form)
        if form:
            rows, q = form
            self.q = math.lcm(CENTER_GRID, q)
            self.unit = self.q // CENTER_GRID
            self.rows = [[c * (self.q // q) for c in row[:-1]] for row in rows]
            projections = [body.int_projections(row) for row in self.rows]
            self.g = projection_distances(projections, self.q)
            self.proj = [p for p, _ in projections]
            self.e = projections[0][1] * self.q
            self.least = math.ceil(MIN_RATIO * self.e)
            self._lt, self._le = operator.lt, operator.le
        else:
            self.q = self.e = 1
            self.unit = Fraction(1, CENTER_GRID)
            self.rows = [h.center.coords for h in members]
            self.g = [[(t, 1) for t in row] for row in distance_table(
                body, [h.center for h in members])]
            self.proj = list(self.rows)
            self.least = MIN_RATIO
            self._lt, self._le = scalars.lt, scalars.le
        self.lam, self.ceils, self.floors = map(list, zip(
            *(self._keep(h.ratio) for h in members)))
        self.body = body
        self._set_box()

    def _set_box(self) -> None:
        """Keep as ``box`` the centers' float bounding box padded by twice
        the largest ratio: int/int true division is correctly rounded, as
        is float(Fraction); an exact ratio beyond the float range pads by
        infinity, and every bound is clamped to +-``BOX_LIMIT``."""
        try:
            pad = 2 * float(max(a / b for a, b in self.lam))
        except OverflowError:
            pad = math.inf
        q = self.q
        cols = list(zip(*self.rows))
        self.box = ([max(min(c) / q - pad, -BOX_LIMIT) for c in cols],
                    [min(max(c) / q + pad, BOX_LIMIT) for c in cols])

    def _keep(self, ratio: Scalar) -> tuple:
        """(lam, ceil, floor) kept for a member's ratio: on the exact route
        (a, b) with ceil(a*e/b) and floor(a*e/b), on the scalar route
        (ratio, 1) with the ratio as both caps."""
        if not self.exact:
            return (ratio, 1), ratio, ratio
        a, b = ratio.numerator, ratio.denominator
        ae = a * self.e
        return (a, b), -(-ae // b), ae // b

    def _gauges(self, center: List[Scalar]) -> List[Scalar]:
        """The center's distances t_j on the scalar route: one gauge per
        member, in order, up to the first that is below the member's
        ceiling, which refuses the center."""
        gauge = self.body.gauge
        ts = []
        for p, ceil in zip(self.proj, self.ceils):
            ts.append(gauge(Vector([c - v for c, v in zip(center, p)])))
            if ts[-1] < ceil:
                break
        return ts

    def insert(self, grid: Sequence[int],
               rng: random.Random) -> Optional[Homothet]:
        """The member at the center grid/4, or None when it admits no ratio.

        With D_j = t/e and lam_j = a/b, the center is interior to member j
        when t*b < a*e; the ratio is at least low, the max of ``MIN_RATIO``
        and every (t*b - a*e)/(e*b), for intersection, and at most high,
        the least t/e, for keeping every v_j outside its interior.  These
        are every comparison the predicates make on the pairs holding the
        new member, so they decide the insertion; the caps refuse a center,
        and low is cross-multiplied only for one they pass.  The ratio is
        low + (high - low)*k/8 for a drawn weight k in 0..8, drawn only for
        a center that admits a ratio.
        """
        center = [k * self.unit for k in grid]
        sub = operator.sub
        if self.exact:  # one projection, every distance from it
            key, _ = self.body.int_projections(center)
            ts = [max(map(abs, map(sub, key, p))) for p in self.proj]
        else:
            key, ts = center, self._gauges(center)
        tmin = min(ts)
        if (tmin < self.least
                or any(map(operator.gt, map(sub, ts, self.floors),
                           repeat(tmin)))
                or any(map(operator.lt, ts, self.ceils))):
            return None
        e = self.e
        ln, ld = MIN_RATIO.numerator, MIN_RATIO.denominator
        for t, (a, b) in zip(ts, self.lam):
            n, d = t * b - a * e, e * b
            if n * ld > ln * d:
                ln, ld = n, d
        weight = _grid_fraction(rng, 0, 1, WEIGHT_GRID)
        if self.exact:
            ratio = Fraction(ln * e * (WEIGHT_GRID - weight)
                             + tmin * ld * weight, ld * e * WEIGHT_GRID)
        else:
            low = div(ln, ld)
            ratio = low + (tmin - low) * Fraction(weight, WEIGHT_GRID)
            if not all(map(math.isfinite, [ratio] + ts)):
                return None
        col = [(t, e) for t in ts]
        for grow, g in zip(self.g, col):
            grow.append(g)
        self.g.append(col + [(0, 1)])
        self.rows.append(center)
        self.proj.append(key)
        lam, ceil, floor = self._keep(ratio)
        self.lam.append(lam)
        self.ceils.append(ceil)
        self.floors.append(floor)
        self._set_box()
        return Homothet(Vector([Fraction(k, CENTER_GRID) for k in grid]), ratio)

    def rescale(self, idx: int, step: Fraction) -> Optional[Scalar]:
        """Member idx's ratio times step, or None when that breaks a
        relation: for lam = a/b and lam_j = c/f, D < lam, D < lam_j or
        D > lam + lam_j, each cross-multiplied."""
        a, b = self.lam[idx]
        if self.exact:
            a, b = a * step.numerator, b * step.denominator
        else:
            a *= step
            if not math.isfinite(a):
                return None
        lt, le = self._lt, self._le
        for j, ((t, e), (c, f)) in enumerate(zip(self.g[idx], self.lam)):
            if j != idx and (lt(t * b, a * e) or lt(t * f, c * e)
                             or not le(t * b * f, (a * f + c * b) * e)):
                return None
        ratio = div(a, b)
        self.lam[idx], self.ceils[idx], self.floors[idx] = self._keep(ratio)
        self._set_box()
        return ratio

    def drop(self, k: int) -> None:
        del (self.g[k], self.rows[k], self.proj[k], self.lam[k],
             self.ceils[k], self.floors[k])
        for grow in self.g:
            del grow[k]
        self._set_box()


def search_arrangement(body: SymmetricBody, dim: int,
                       config: Optional[SearchConfig] = None,
                       warm_start: Optional[Arrangement] = None) -> Arrangement:
    """Seeded local search for large pairwise intersecting Minkowski
    arrangements.

    Moves: insert a random homothet inside the bounding box of the current
    centers padded by twice the largest ratio (``INSERT_ATTEMPTS`` draws),
    else rescale one ratio by a step of ``RATIO_STEPS``, and drop a random
    member after ``STAGNATION_LIMIT`` iterations without an insertion.
    Candidate moves are generated in a fixed per-iteration order and the
    first feasible one is taken, so a fixed seed fully determines the run.
    Only states passing both predicates are ever accepted.

    A move is checked in O(n) against the distances ``_SearchState`` keeps
    between the current members, on integers for exact members of an exact
    body; an insertion compares the candidate's distances with each
    member's caps on both routes.  The accepted state always satisfies both
    predicates, so checking the moved member's relations makes the same
    decisions as a full pass over the candidate.  The warm start and the
    result are checked by the full predicates.
    """
    return _search(body, dim, config or SearchConfig(), warm_start,
                   _SearchState)


def _search(body: SymmetricBody, dim: int, cfg: SearchConfig,
            warm_start: Optional[Arrangement], make_state) -> Arrangement:
    """The move loop.  ``make_state(body, members)`` gives the state that
    decides every move on the loop's list ``members``: ``box`` the float
    box the centers are drawn in, ``insert(grid, rng)`` the member at the
    center grid/4 or None, ``rescale(idx, step)`` member idx's new ratio or
    None, and ``drop(k)``.  The loop turns the box into one integer
    ``_draw_range`` (lo_n, n, k) per axis, again only when ``box`` is a new
    object, and draws each grid coordinate as ``_grid_fraction`` does:
    lo_n + r for r = getrandbits(k), redrawn while r >= n.  The rescaled
    member, its step and the dropped member are ``_below`` their counts, so
    no draw goes through ``rng.randrange``."""
    if body.dim != dim:
        raise ValueError("body dimension does not match the search dimension")
    rng = random.Random(cfg.seed)
    members = [Homothet(zero_vector(dim), Fraction(1))]
    if warm_start is not None:
        check_warm_start(body, warm_start)
        members = list(warm_start.members)
    state = make_state(body, members)
    best = list(members)
    stagnation = 0
    getrandbits = rng.getrandbits
    box = None

    for _ in range(cfg.iterations):
        if state.box is not box:
            box = state.box
            ranges = [_draw_range(lo, hi) for lo, hi in zip(*box)]
        for _attempt in range(INSERT_ATTEMPTS):
            grid = []  # the draws of ``_grid_fraction``, inline
            for lo_n, n, k in ranges:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                grid.append(lo_n + r)
            member = state.insert(grid, rng)
            if member is not None:
                members.append(member)
                stagnation = 0
                break
        else:  # no insertion: rescale one member, and drop one when stuck
            idx = _below(getrandbits, len(members))
            ratio = state.rescale(
                idx, RATIO_STEPS[_below(getrandbits, len(RATIO_STEPS))])
            if ratio is not None:
                members[idx] = Homothet(members[idx].center, ratio)
            stagnation += 1
            if stagnation >= STAGNATION_LIMIT and len(members) > 1:
                drop = _below(getrandbits, len(members))
                del members[drop]
                state.drop(drop)
                stagnation = 0
        if len(members) > len(best):
            best = list(members)

    # re-verify with an independent pass; a failure here would be a bug
    if not _feasible(body, best):
        raise AssertionError("search produced an invalid arrangement")
    if len(best) > arrangement_size_bound(dim):
        raise AssertionError("search exceeded the 3^(d+1) bound; "
                             "this would falsify the packing argument")
    return Arrangement(body, tuple(best))


def arrangement_to_json(arr: Arrangement) -> dict:
    return {"body": body_to_json(arr.body),
            "homothets": [{"center": [format_scalar(c) for c in h.center],
                           "ratio": format_scalar(h.ratio)}
                          for h in arr.members]}


def arrangement_from_json(obj: dict) -> Arrangement:
    try:
        body = body_from_json(obj["body"])
        members = tuple(Homothet(_vector(h["center"]),
                                 parse_scalar(h["ratio"]))
                        for h in obj["homothets"])
    except (KeyError, TypeError) as exc:
        raise ValueError("arrangement JSON needs 'body' and 'homothets'") from exc
    return Arrangement(body, members)
