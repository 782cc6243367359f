"""Homothet families: predicates, generators, the ratio partition and search.

A family {v_i + lam_i K} is a Minkowski arrangement when no member contains
another member's center in its interior, and it is pairwise intersecting when
every two members meet.  Closed bodies are used throughout, so touching
counts as intersecting while a center sitting exactly on a boundary does not
violate the arrangement condition.  Both conditions read one distance per
pair, the centers' ``distance_table`` D: max(lam_i, lam_j) <= D[i][j] <=
lam_i + lam_j.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import List, Optional, Sequence, Tuple

from . import scalars
from .bodies import (SymmetricBody, body_from_json, body_to_json,
                     distance_table, linf_ball)
from .kdistance import chain_violation
from .linalg import Vector, zero_vector
from .scalars import Scalar, div, format_scalar, parse_scalar


@dataclass(frozen=True)
class Homothet:
    """One positive homothet center + lam * K."""
    center: Vector
    ratio: Scalar

    def __post_init__(self):
        if scalars.le(self.ratio, 0):
            raise ValueError("homothety ratios must be positive")


@dataclass(frozen=True)
class Arrangement:
    body: SymmetricBody
    members: Tuple[Homothet, ...]
    # (rows, q) with (v_k, lam_k) = rows[k]/q; None if any value is a float
    form: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("arrangements need at least one homothet")
        for h in self.members:
            if h.center.dim != self.body.dim:
                raise ValueError("homothet center dimension mismatch")
        object.__setattr__(self, "form", scalars.int_rows(
            [h.center.coords + (h.ratio,) for h in self.members]))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.body.dim

    @cached_property
    def distances(self) -> List[List[Scalar]]:
        """The centers' ``distance_table``, computed on first use and kept.

        Exact centers on an exact body take it from the integer rows: the
        gauge is a norm, so gauge(v_j - v_i) = gauge(P_j - P_i)/q.
        """
        if not (self.form and self.body.exact):
            return distance_table(self.body, [h.center for h in self.members])
        rows, q = self.form
        table = distance_table(self.body, [Vector(row[:-1]) for row in rows])
        if q > 1:
            for row in table:
                row[:] = [g and Fraction(g.numerator, g.denominator * q)
                          for g in row]
        return table


def intersects(body: SymmetricBody, h1: Homothet, h2: Homothet) -> bool:
    """Closed homothets of a symmetric body meet iff the gauge distance of
    the centers is at most the ratio sum (touching counts)."""
    return scalars.le(body.gauge(h1.center - h2.center), h1.ratio + h2.ratio)


def center_in_interior(body: SymmetricBody, owner: Homothet,
                       point: Vector) -> bool:
    """Strict containment: boundary points are not interior."""
    return scalars.lt(body.gauge(point - owner.center), owner.ratio)


def find_minkowski_violation(arr: Arrangement) -> Optional[Tuple[int, int]]:
    """First (owner, center) index pair violating the arrangement condition,
    center j interior to member i: D[i][j] < lam_i."""
    for i, (hi, row) in enumerate(zip(arr.members, arr.distances)):
        for j, g in enumerate(row):
            if i != j and scalars.lt(g, hi.ratio):
                return (i, j)
    return None


def is_minkowski_arrangement(arr: Arrangement) -> bool:
    return find_minkowski_violation(arr) is None


def find_intersection_violation(arr: Arrangement) -> Optional[Tuple[int, int]]:
    """First pair i < j of members that do not meet: D[i][j] > lam_i + lam_j."""
    for i, (hi, row) in enumerate(zip(arr.members, arr.distances)):
        for j in range(i + 1, len(row)):
            if not scalars.le(row[j], hi.ratio + arr.members[j].ratio):
                return (i, j)
    return None


def is_pairwise_intersecting(arr: Arrangement) -> bool:
    return find_intersection_violation(arr) is None


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
    pair = chain_violation(arr.distances, lambdas)
    if pair is not None:
        i, j = pair
        raise ChainPropertyError(i, j, arr.distances[i][j], lambdas[i])
    return arr


@dataclass(frozen=True)
class PartitionLabel:
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
    labeled with base-mu logarithms; values within the run tolerance of an
    interval endpoint snap to the endpoint (intervals are right-closed).
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
            if abs(t - nearest) <= scalars.tolerance():
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


@dataclass
class SearchConfig:
    seed: int = 0
    iterations: int = 200


# center draws per insertion, iterations without one before a drop, ratio steps
INSERT_ATTEMPTS = 4
STAGNATION_LIMIT = 25
RATIO_STEPS = (Fraction(3, 4), Fraction(5, 6), Fraction(6, 5), Fraction(4, 3))


def _feasible(body: SymmetricBody, members: Sequence[Homothet]) -> bool:
    arr = Arrangement(body, tuple(members))
    return (find_minkowski_violation(arr) is None
            and find_intersection_violation(arr) is None)


def _grid_fraction(rng: random.Random, lo: float, hi: float,
                   denom: int = 4) -> Fraction:
    lo_n = math.ceil(lo * denom)
    hi_n = math.floor(hi * denom)
    if hi_n < lo_n:
        hi_n = lo_n
    return Fraction(rng.randint(lo_n, hi_n), denom)


def _feasible_ratio(body: SymmetricBody, members: List[Homothet],
                    center: Vector, rng: random.Random):
    """A ratio making the new member intersect everyone without breaking the
    arrangement condition, with the gauges gauge(c - v_j) it computed, or
    None when the center admits no such ratio.

    Bounds: lam >= gauge(c - v_j) - lam_j for intersection, lam <= gauge for
    keeping v_j outside the interior, and the center itself must not lie in
    any existing interior.  They are every comparison the predicates make on
    the pairs holding the new member, so the ratio decides the insertion.
    """
    low = Fraction(1, 8)
    high = None
    gauges = []
    for h in members:
        g = body.gauge(center - h.center)
        gauges.append(g)
        if g < h.ratio:  # center already interior to an existing member
            return None
        low = max(low, g - h.ratio)
        high = g if high is None else min(high, g)
    if high is None or low > high:
        return None
    return low + (high - low) * Fraction(rng.randint(0, 8), 8), gauges


def _member_feasible(dist: Sequence[Scalar], ratios: Sequence[Scalar],
                     idx: int, ratio: Scalar) -> bool:
    """Whether member idx with the given ratio keeps every relation with the
    members j != idx (idx may be len(ratios), a new last member): the full
    predicate pass's comparisons of the pairs holding idx, read from its
    distances dist[j] = D[idx][j]."""
    for j, rj in enumerate(ratios):
        if j != idx and (scalars.lt(dist[j], ratio) or scalars.lt(dist[j], rj)
                         or not scalars.le(dist[j], ratio + rj)):
            return False
    return True


class _GaugeCache:
    """Search moves decided from the ``distance_table`` G of the members: an
    insertion appends the ``col`` of ``_feasible_ratio``, gauge(c - v_j) in
    the table's orientation, and computes no gauge; a rescaling reads a row;
    a drop removes a row and a column."""

    def __init__(self, body: SymmetricBody, members: Sequence[Homothet]):
        self.g = distance_table(body, [h.center for h in members])

    def insert(self, col: Sequence[Scalar]) -> None:
        """Grow G by a new last member, col[j] = gauge(c - v_j)."""
        for grow, g in zip(self.g, col):
            grow.append(g)
        self.g.append(list(col) + [0])

    def rescale(self, members: Sequence[Homothet], idx: int,
                ratio: Scalar) -> bool:
        return _member_feasible(self.g[idx], [h.ratio for h in members],
                                idx, ratio)

    def drop(self, k: int) -> None:
        del self.g[k]
        for grow in self.g:
            del grow[k]


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

    A move is checked in O(n): an insertion by the bounds of
    ``_feasible_ratio``, a rescaling against the distances ``_GaugeCache``
    keeps between the current members.  The accepted state always satisfies
    both predicates, so checking the moved member's relations makes the same
    decisions as a full pass over the candidate.  The warm start and the
    result are checked by the full predicates.
    """
    return _search(body, dim, config or SearchConfig(), warm_start,
                   _GaugeCache)


def _search(body: SymmetricBody, dim: int, cfg: SearchConfig,
            warm_start: Optional[Arrangement], make_state) -> Arrangement:
    """The move loop; ``make_state(body, members)`` gives the ``rescale``
    that decides a rescaling, and the ``insert`` (called once the new member
    is appended) and ``drop`` that follow the members."""
    if body.dim != dim:
        raise ValueError("body dimension does not match the search dimension")
    rng = random.Random(cfg.seed)
    members = list(warm_start.members) if warm_start is not None \
        else [Homothet(zero_vector(dim), Fraction(1))]
    if not _feasible(body, members):
        raise ValueError("warm start is not a valid arrangement")
    state = make_state(body, members)
    best = list(members)
    stagnation = 0

    for _ in range(cfg.iterations):
        max_ratio = max(float(h.ratio) for h in members)
        lo = [min(float(h.center[i]) for h in members) - 2 * max_ratio
              for i in range(dim)]
        hi = [max(float(h.center[i]) for h in members) + 2 * max_ratio
              for i in range(dim)]
        for _attempt in range(INSERT_ATTEMPTS):
            center = Vector([_grid_fraction(rng, lo[i], hi[i])
                             for i in range(dim)])
            found = _feasible_ratio(body, members, center, rng)
            if found is not None:
                members.append(Homothet(center, found[0]))
                state.insert(found[1])
                stagnation = 0
                break
        else:  # no insertion: rescale one member, and drop one when stuck
            idx = rng.randrange(len(members))
            step = RATIO_STEPS[rng.randrange(len(RATIO_STEPS))]
            ratio = members[idx].ratio * step
            if state.rescale(members, idx, ratio):
                members[idx] = Homothet(members[idx].center, ratio)
            stagnation += 1
            if stagnation >= STAGNATION_LIMIT and len(members) > 1:
                drop = rng.randrange(len(members))
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
        members = tuple(Homothet(Vector(parse_scalar(c) for c in h["center"]),
                                 parse_scalar(h["ratio"]))
                        for h in obj["homothets"])
    except (KeyError, TypeError) as exc:
        raise ValueError("arrangement JSON needs 'body' and 'homothets'") from exc
    return Arrangement(body, members)
