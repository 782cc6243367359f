"""Homothet families: predicates, generators, the ratio partition and search.

A family {v_i + lam_i K} is a Minkowski arrangement when no member contains
another member's center in its interior, and it is pairwise intersecting when
every two members meet.  Closed bodies are used throughout, so touching
counts as intersecting while a center sitting exactly on a boundary does not
violate the arrangement condition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

from . import scalars
from .bodies import SymmetricBody, body_from_json, body_to_json, linf_ball
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

    def __post_init__(self):
        if not self.members:
            raise ValueError("arrangements need at least one homothet")
        for h in self.members:
            if h.center.dim != self.body.dim:
                raise ValueError("homothet center dimension mismatch")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.body.dim


def intersects(body: SymmetricBody, h1: Homothet, h2: Homothet) -> bool:
    """Closed homothets of a symmetric body meet iff the gauge distance of
    the centers is at most the ratio sum (touching counts)."""
    return scalars.le(body.gauge(h1.center - h2.center), h1.ratio + h2.ratio)


def center_in_interior(body: SymmetricBody, owner: Homothet,
                       point: Vector) -> bool:
    """Strict containment: boundary points are not interior."""
    return scalars.lt(body.gauge(point - owner.center), owner.ratio)


def find_minkowski_violation(arr: Arrangement) -> Optional[Tuple[int, int]]:
    """First (owner, center) index pair violating the arrangement condition."""
    for i, hi in enumerate(arr.members):
        for j, hj in enumerate(arr.members):
            if i != j and center_in_interior(arr.body, hi, hj.center):
                return (i, j)
    return None


def is_minkowski_arrangement(arr: Arrangement) -> bool:
    return find_minkowski_violation(arr) is None


def find_intersection_violation(arr: Arrangement) -> Optional[Tuple[int, int]]:
    n = len(arr.members)
    for i in range(n):
        for j in range(i + 1, n):
            if not intersects(arr.body, arr.members[i], arr.members[j]):
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
    for i in range(n):
        for j in range(i + 1, n):
            got = body.gauge(points[i] - points[j])
            if not scalars.eq(got, lambdas[i]):
                raise ChainPropertyError(i, j, got, lambdas[i])
    ratios = list(lambdas) + [lambdas[-1]]
    return Arrangement(body, tuple(Homothet(p, r)
                                   for p, r in zip(points, ratios)))


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


def chain_cardinality_bound(dim: int) -> float:
    """The chain cardinality bound d*(1 + 2/(2 - 2^(1/(d-1))))^(d+1).

    For d = 2 the inner denominator vanishes and the value is genuinely
    infinite; math.inf is returned explicitly, never a NaN or an exception.
    """
    if dim < 2:
        raise ValueError("the bound needs dimension >= 2")
    if dim == 2:
        return math.inf
    return dim * (1 + 2 / (2 - 2 ** (1 / (dim - 1)))) ** (dim + 1)


@dataclass
class SearchConfig:
    seed: int = 0
    iterations: int = 200
    insert_attempts: int = 4
    stagnation_limit: int = 25
    ratio_steps: Tuple[Fraction, ...] = (Fraction(3, 4), Fraction(5, 6),
                                         Fraction(6, 5), Fraction(4, 3))


def _feasible(body: SymmetricBody, members: List[Homothet]) -> bool:
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
    any existing interior.
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


def _gauge_matrix(body: SymmetricBody, members: Sequence[Homothet]):
    """G[i][j] = gauge(v_j - v_i), both orientations, 0 on the diagonal."""
    return [[body.gauge(hj.center - hi.center) if i != j else 0
             for j, hj in enumerate(members)]
            for i, hi in enumerate(members)]


def _append_member(gauges: List[List[Scalar]], row: Sequence[Scalar],
                   col: Sequence[Scalar]) -> None:
    """Grow G by a last member with row[j] = gauge(v_j - c) and
    col[j] = gauge(c - v_j)."""
    for grow, g in zip(gauges, col):
        grow.append(g)
    gauges.append(list(row) + [0])


def _drop_member(gauges: List[List[Scalar]], k: int) -> None:
    """Remove member k's row and column from G."""
    del gauges[k]
    for grow in gauges:
        del grow[k]


def _member_feasible(row: Sequence[Scalar], col: Sequence[Scalar],
                     ratios: Sequence[Scalar], idx: int,
                     ratio: Scalar) -> bool:
    """Whether member idx with the given ratio keeps every relation with the
    members j != idx, from cached gauges row[j] = gauge(v_j - v_idx) and
    col[j] = gauge(v_idx - v_j); idx may be len(ratios), a new last member.

    These are the comparisons the full predicate pass makes for the pairs
    holding idx, on the same gauge values: neither center is interior to the
    other member, and the pair meets, where intersection reads the gauge of
    v_lower - v_higher as ``intersects`` does.
    """
    for j, rj in enumerate(ratios):
        if j == idx:
            continue
        if scalars.lt(row[j], ratio) or scalars.lt(col[j], rj):
            return False
        if not scalars.le(col[j] if idx < j else row[j], ratio + rj):
            return False
    return True


def search_arrangement(body: SymmetricBody, dim: int,
                       config: Optional[SearchConfig] = None,
                       warm_start: Optional[Arrangement] = None) -> Arrangement:
    """Seeded local search for large pairwise intersecting Minkowski
    arrangements.

    Moves: insert a random homothet inside the bounding box of the current
    centers padded by twice the largest ratio, perturb one ratio
    multiplicatively, and drop a random member after prolonged stagnation.
    Candidate moves are generated in a fixed per-iteration order and the
    first feasible one is taken, so a fixed seed fully determines the run.
    Only states passing both predicates are ever accepted.

    The gauges between current members are cached in G[i][j] =
    gauge(v_j - v_i), both orientations, so a move is checked in O(n) by
    ``_member_feasible``: an insertion costs the n gauges of
    ``_feasible_ratio`` plus the n reverse ones, a ratio move none, and a
    drop removes a row and a column.  The accepted state always satisfies
    both predicates, so checking the moved member's relations makes the
    same decisions as a full pass over the candidate.  The warm start and
    the result are checked by the full predicates.
    """
    if body.dim != dim:
        raise ValueError("body dimension does not match the search dimension")
    cfg = config or SearchConfig()
    rng = random.Random(cfg.seed)
    if warm_start is not None:
        members = list(warm_start.members)
    else:
        members = [Homothet(zero_vector(dim), Fraction(1))]
    if not _feasible(body, members):
        raise ValueError("warm start is not a valid arrangement")
    gauges = _gauge_matrix(body, members)
    best = list(members)
    stagnation = 0

    for _ in range(cfg.iterations):
        max_ratio = max(float(h.ratio) for h in members)
        lo = [min(float(h.center[i]) for h in members) - 2 * max_ratio
              for i in range(dim)]
        hi = [max(float(h.center[i]) for h in members) + 2 * max_ratio
              for i in range(dim)]
        ratios = [h.ratio for h in members]
        inserted = False
        for _attempt in range(cfg.insert_attempts):
            center = Vector([_grid_fraction(rng, lo[i], hi[i])
                             for i in range(dim)])
            found = _feasible_ratio(body, members, center, rng)
            if found is None:
                continue
            ratio, col = found
            row = [body.gauge(h.center - center) for h in members]
            if _member_feasible(row, col, ratios, len(members), ratio):
                _append_member(gauges, row, col)
                members.append(Homothet(center, ratio))
                inserted = True
                break
        if inserted:
            stagnation = 0
        else:
            idx = rng.randrange(len(members))
            step = cfg.ratio_steps[rng.randrange(len(cfg.ratio_steps))]
            h = members[idx]
            moved = Homothet(h.center, h.ratio * step)
            if _member_feasible(gauges[idx], [grow[idx] for grow in gauges],
                                ratios, idx, moved.ratio):
                members[idx] = moved
            stagnation += 1
            if stagnation >= cfg.stagnation_limit and len(members) > 1:
                drop = rng.randrange(len(members))
                del members[drop]
                _drop_member(gauges, drop)
                stagnation = 0
        if len(members) > len(best):
            best = list(members)

    result = Arrangement(body, tuple(best))
    # re-verify with an independent pass; a failure here would be a bug
    if find_minkowski_violation(result) is not None \
            or find_intersection_violation(result) is not None:
        raise AssertionError("search produced an invalid arrangement")
    if len(result) > arrangement_size_bound(dim):
        raise AssertionError("search exceeded the 3^(d+1) bound; "
                             "this would falsify the packing argument")
    return result


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
