"""Distance spectra under a body's gauge and greedy chain extraction.

A point set is a k-distance set when at most k distinct nonzero gauge
distances occur between its points.  The greedy extractor repeatedly picks
the most popular distance class from the newest chain point into the
surviving pool and restricts the pool to that class, producing points
y_1, ..., y_m with gauge(y_i - y_j) = lam_i for all i < j.  While the pool
holds at least k^t points, each round keeps at least k^(t-1) of them, so a
pool of k^(m-1) points guarantees a chain of length m (``guaranteed_length``).

One quirk of the pool update is deliberate: the newest chain point stays in
the pool until a nonzero class excludes it, and distance classes are always
collected over nonzero distances only.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from typing import List, Optional, Tuple

from . import scalars
from .bodies import SymmetricBody, _vector, distance_table
from .linalg import Vector
from .scalars import Scalar, format_scalar


class _Undefined:
    """Typed marker for formulas that genuinely degenerate at d = 2."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED (the term 2 - 2^(1/(d-1)) vanishes at d = 2)"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


def _values(record) -> tuple:
    """A record's field values in order: what its equality compares."""
    return tuple(getattr(record, name) for name in record.__slots__)


class PointSet:
    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points: Tuple[Vector, ...]):
        for p in points:
            if p.dim != dim:
                raise ValueError("point dimension mismatch")
        # with a float among them the points compare in floats
        scalars.check_float_range([c for p in points for c in p])
        n = len(points)
        for i in range(n):
            for j in range(i + 1, n):
                if points[i] == points[j]:
                    raise ValueError("points %d and %d coincide" % (i, j))
        self.dim = dim
        self.points = points

    def __eq__(self, other):
        return type(other) is PointSet and _values(self) == _values(other)

    def __len__(self):
        return len(self.points)


class DistanceSpectrum:
    """Distinct positive distances with multiplicities, increasing order."""
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Scalar, int], ...]):
        self.entries = entries

    @property
    def distances(self) -> Tuple[Scalar, ...]:
        return tuple(d for d, _ in self.entries)

    def __len__(self):
        return len(self.entries)


def spectrum(body: SymmetricBody, pts: PointSet) -> DistanceSpectrum:
    """All pairwise gauge distances, exact keys in rational mode and
    tolerance-clustered in floating mode."""
    return _spectrum(distance_table(body, pts.points))


def _spectrum(table) -> DistanceSpectrum:
    if len(table) < 2:
        raise ValueError("spectra need at least two points")
    dists = [g for i, row in enumerate(table) for g in row[i + 1:]]
    if scalars.is_exact(*dists):
        counted = {}
        for d in dists:
            key = Fraction(d)
            counted[key] = counted.get(key, 0) + 1
        entries = tuple(sorted(counted.items()))
    else:
        entries = _cluster(sorted(float(d) for d in dists))
    return DistanceSpectrum(entries)


def _cluster(sorted_values: List[float]) -> Tuple[Tuple[float, int], ...]:
    entries = []  # [anchor, count]: a value within tolerance joins the last
    for v in sorted_values:
        if entries and not v - entries[-1][0] > scalars.TOLERANCE:
            entries[-1][1] += 1
        else:
            entries.append([v, 1])
    return tuple(map(tuple, entries))


def grid_set(dim: int, k: int) -> PointSet:
    """The integer grid {0..k}^d: (k+1)^d points whose max-norm spectrum is
    exactly {1..k}."""
    if dim < 1 or k < 1:
        raise ValueError("dimension and k must be positive")
    points = tuple(Vector([Fraction(c) for c in coords])
                   for coords in product(range(k + 1), repeat=dim))
    return PointSet(dim, points)


def _chain_bound(dim: int, digits: int) -> Decimal:
    """d*(1 + 2/(2 - 2^(1/(d-1))))^(d+1) to ``digits`` significant digits,
    infinite at d = 2 where the term 2 - 2^(1/(d-1)) vanishes."""
    if dim < 2:
        raise ValueError("the bound needs dimension >= 2")
    if dim == 2:
        return Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = digits
        root = Decimal(2) ** (Decimal(1) / Decimal(dim - 1))
        return dim * (1 + 2 / (2 - root)) ** (dim + 1)


def _chain_bound_floor_at(dim: int, digits: int) -> int:
    return int(_chain_bound(dim, digits))  # truncation == floor, positive


def chain_bound_floor(dim: int):
    """floor(d * (1 + 2/(2 - 2^(1/(d-1))))^(d+1)) in high-precision decimal.

    The result must be stable under doubling of the working precision; a
    value that flips would mean the expression sits on an integer boundary.
    Returns the UNDEFINED marker at d = 2 where the denominator vanishes.
    """
    digits = 60
    if _chain_bound(dim, digits).is_infinite():
        return UNDEFINED
    while digits <= 960:
        first = _chain_bound_floor_at(dim, digits)
        second = _chain_bound_floor_at(dim, digits * 2)
        if first == second:
            return first
        digits *= 4
    raise ArithmeticError("floor did not stabilize under precision doubling")


def guaranteed_length(n: int, k: int) -> int:
    """The chain length the pigeonhole argument guarantees in a k-distance
    set of n points: the largest t with k^(t-1) <= n, never above n."""
    if k < 1:
        raise ValueError("k must be positive")
    t = 0
    while t < n and k ** t <= n:
        t += 1
    return t


class ChainResult:
    __slots__ = ("indices", "points", "lambdas", "target", "guaranteed")

    def __init__(self, indices: Tuple[int, ...], points: Tuple[Vector, ...],
                 lambdas: Tuple[Scalar, ...], target: int,
                 guaranteed: bool):
        self.indices = indices
        self.points = points
        self.lambdas = lambdas
        self.target = target
        # False when the pigeonhole precondition failed
        self.guaranteed = guaranteed

    def __eq__(self, other):
        return type(other) is ChainResult and _values(self) == _values(other)

    def __len__(self):
        return len(self.points)


def greedy_chain(body: SymmetricBody, pts: PointSet, k: int,
                 target: int) -> ChainResult:
    """Extract a chain of up to ``target`` points from a k-distance set.

    Each round groups the pool by the spectrum class of its nonzero gauge
    distance from the newest chain point, keyed by the class's spectrum
    entry, keeps a class of maximal cardinality (ties break toward the
    smaller distance), and appends the first surviving point in input order.
    A target up to ``guaranteed_length`` is reached in full; above it the
    run is best-effort and flagged accordingly, and it stops early if the
    pool empties.
    """
    table = distance_table(body, pts.points)
    anchors = _spectrum(table).distances
    if target < 1:
        raise ValueError("target must be positive")
    as_anchor = type(anchors[0])  # the spectrum's scalar: Fraction or float
    if len(anchors) > k:
        raise ValueError("the point set realizes more than %d distances" % k)
    guaranteed = target <= guaranteed_length(len(pts), k)
    pool = list(range(len(pts)))
    chain_idx = [0]
    lambdas: List[Scalar] = []
    while len(chain_idx) < target:
        head = table[chain_idx[-1]]
        classes = {}
        for idx in pool:
            dist = head[idx]
            if scalars.eq(dist, 0):
                continue
            key = anchors[bisect_right(anchors, as_anchor(dist)) - 1]
            classes.setdefault(key, []).append(idx)
        if not classes:
            break
        best_key = min(classes, key=lambda d: (-len(classes[d]), d))
        survivors = classes[best_key]
        lambdas.append(best_key)
        chain_idx.append(survivors[0])
        pool = survivors
    points = tuple(pts.points[i] for i in chain_idx)
    return ChainResult(tuple(chain_idx), points, tuple(lambdas),
                       target, guaranteed)


def verify_chain(body: SymmetricBody, chain: ChainResult) -> bool:
    """Replay the chain property gauge(y_i - y_j) == lam_i for all i < j."""
    if len(chain.lambdas) != max(len(chain.points) - 1, 0):
        return False
    return find_chain_violation(body, chain) is None


def find_chain_violation(body: SymmetricBody,
                         chain: ChainResult) -> Optional[Tuple[int, int]]:
    return chain_violation(distance_table(body, chain.points), chain.lambdas)


def chain_violation(table, lambdas) -> Optional[Tuple[int, int]]:
    """First pair i < j of the points' ``distance_table`` breaking the chain
    property table[i][j] == lam_i, or None."""
    for i, lam in enumerate(lambdas):
        for j in range(i + 1, len(table)):
            if not scalars.eq(table[i][j], lam):
                return (i, j)
    return None


def pointset_to_json(pts: PointSet) -> dict:
    return {"dim": pts.dim,
            "points": [[format_scalar(c) for c in p] for p in pts.points]}


def pointset_from_json(obj: dict) -> PointSet:
    try:
        dim = scalars.parse_dim(obj["dim"])
        points = tuple(map(_vector, obj["points"]))
    except (KeyError, TypeError) as exc:
        raise ValueError("point set JSON needs 'dim' and 'points'") from exc
    return PointSet(dim, points)


def chain_to_json(body: SymmetricBody, chain: ChainResult) -> dict:
    return {"indices": list(chain.indices),
            "points": [[format_scalar(c) for c in p] for p in chain.points],
            "lambdas": [format_scalar(l) for l in chain.lambdas],
            "target": chain.target,
            "guaranteed": chain.guaranteed,
            "verified": verify_chain(body, chain)}
