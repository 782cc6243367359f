"""Seeded random instance generators with exact rational data.

The generators produce the two corpus flavors the verification suites run
on: families that are merely pairwise intersecting, and families that are
additionally Minkowski arrangements.  Both are built constructively so no
rejection loop over full predicate checks is needed:

* intersecting only: every ratio is drawn from [D/2, D] where D is the
  largest pairwise gauge distance, so ratio sums dominate every distance;
* Minkowski: starting from the componentwise-maximal feasible ratio vector
  lam_i = min_j gauge(v_i - v_j), each ratio is re-drawn from the interval
  that keeps all pairwise sums feasible, preserving both properties.

All coordinates are small-denominator rationals, which keeps the downstream
exact arithmetic fast.  The Minkowski generator needs an exact body: each
draw of centers takes the ``projection_distances`` of one
``int_projections`` per center, whose distances share one denominator, so
feasibility is decided on their integer tops and the ratios are drawn from
them.  The family returned computes its own ``Arrangement.relations``,
which its predicates read.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from . import scalars
from .arrangement import (Arrangement, Homothet, find_intersection_violation,
                          find_minkowski_violation)
from .bodies import (SymmetricBody, VPolytopeBody, distance_table,
                     fraction_table, l1_ball, linf_ball,
                     projection_distances)
from .lifting import lift
from .linalg import Vector, affine_rank


def random_symmetric_hexagon(rng: random.Random) -> VPolytopeBody:
    """A random origin-symmetric hexagon given by three vertex pairs."""
    while True:
        vs: List[Vector] = []
        for _ in range(3):
            x = Fraction(rng.randint(-8, 8), 4)
            y = Fraction(rng.randint(-8, 8), 4)
            vs.append(Vector((x, y)))
        if any(v.is_zero() for v in vs):
            continue
        distinct = all(scalars.sign(vs[a][0] * vs[b][1] - vs[a][1] * vs[b][0]) != 0
                       for a in range(3) for b in range(a + 1, 3))
        if not distinct:
            continue
        return VPolytopeBody(2, tuple(vs) + tuple(-v for v in vs))


def corpus_body(rng: random.Random, index: int) -> SymmetricBody:
    """Round-robin over the corpus body kinds, hexagons freshly sampled."""
    kind = index % 3
    if kind == 0:
        return linf_ball(2)
    if kind == 1:
        return l1_ball(2)
    return random_symmetric_hexagon(rng)


def _random_centers(rng: random.Random, n: int, dim: int,
                    span: int = 4) -> List[Vector]:
    if n > (2 * span + 1) ** dim:
        raise ValueError("no %d distinct centers in a box of span %d"
                         % (n, span))
    centers: List[Vector] = []
    seen = set()
    while len(centers) < n:
        c = Vector([Fraction(rng.randint(-span, span), 2) for _ in range(dim)])
        if c.coords not in seen:
            seen.add(c.coords)
            centers.append(c)
    return centers


def _rational_between(rng: random.Random, lo: Fraction, hi: Fraction,
                      steps: int = 8) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randint(0, steps), steps)


def random_intersecting_arrangement(rng: random.Random,
                                    body: Optional[SymmetricBody] = None,
                                    n: Optional[int] = None) -> Arrangement:
    """A pairwise intersecting family with exact rational data (it need not
    be a Minkowski arrangement)."""
    body = body or corpus_body(rng, rng.randrange(3))
    n = n or rng.randint(3, 5)
    centers = _random_centers(rng, n, body.dim)
    table = distance_table(body, centers)
    diameter = max(Fraction(table[i][j])
                   for i in range(n) for j in range(i + 1, n))
    lams = [_rational_between(rng, diameter / 2, diameter) for _ in range(n)]
    arr = Arrangement(body, tuple(map(Homothet, centers, lams)))
    if find_intersection_violation(arr) is not None:
        raise AssertionError("generator produced a non-intersecting family")
    return arr


# attempts at the floor (box span 2, n at its floor) before giving up a body
FLOOR_ATTEMPTS = 20_000


class NoArrangementFound(ValueError):
    """The body admitted no family within FLOOR_ATTEMPTS floor attempts."""


def random_minkowski_arrangement(rng: random.Random,
                                 body: Optional[SymmetricBody] = None,
                                 n: Optional[int] = None,
                                 full_lift: bool = False) -> Arrangement:
    """A pairwise intersecting Minkowski arrangement with rational data.

    With ``full_lift`` the ratios are re-drawn until the lifted image spans
    dimension d + 1 affinely (needed by the full-dimensional packing runs),
    which takes at least d + 2 members.  The body must be exact.  On a
    line n <= 3, as v_n - v_1 <= lam_1 + lam_n <= v_2 - v_1 + v_n - v_{n-1}.
    """
    body = body or corpus_body(rng, rng.randrange(3))
    n_floor = body.dim + 2 if full_lift else 3
    if body.dim == 1 and (n or 0) > 3:
        raise ValueError("no %d members fit on a line; at most 3 do" % n)
    n = n or max(rng.randint(4, 6), n_floor)
    if body.dim == 1:
        n = min(n, 3)
    if not body.exact:
        raise ValueError("the generator needs a facet form with exact "
                         "facets, not %r" % body)
    span = 4
    attempts = floor_attempts = 0
    while True:
        attempts += 1
        if attempts % 200 == 0:
            # eccentric bodies make clustered center sets rare; tighten the
            # box first while it holds n distinct centers, then settle for a
            # smaller family (n=3 is feasible for every body by the gauge
            # triangle inequality; a full lift needs d + 2 members)
            if span > 2 and (2 * span - 1) ** body.dim >= n:
                span -= 1
            elif n > n_floor:
                n -= 1
        floor_attempts += span == 2 and n <= n_floor
        if floor_attempts > FLOOR_ATTEMPTS:
            raise NoArrangementFound("no family of %d members found" % n)
        centers = _random_centers(rng, n, body.dim, span=span)
        # the ratio polytope is nonempty iff every pair distance is at most
        # the sum of the two nearest-neighbor distances: decided on the
        # integer table, whose distances t/e share one denominator e
        rows, q = scalars.int_rows([c.coords for c in centers])
        itable = projection_distances(
            [body.int_projections(p) for p in rows], q)
        near = [min(row[:i] + row[i + 1:]) for i, row in enumerate(itable)]
        if any(near[i][0] + near[j][0] < itable[i][j][0]
               for i in range(n) for j in range(i + 1, n)):
            continue
        table = fraction_table(itable)
        caps = [Fraction(t, e) for t, e in near]
        for _attempt in range(8):
            lams: List[Fraction] = list(caps)
            for i in range(n):
                low = max(table[i][j] - lams[j] for j in range(n) if j != i)
                low = max(low, min(caps[i], Fraction(1, 16)))
                lams[i] = _rational_between(rng, low, caps[i])
            arr = Arrangement(body, tuple(map(Homothet, centers, lams)))
            if full_lift and not _spans_lifted_space(arr):
                continue
            if find_minkowski_violation(arr) is not None \
                    or find_intersection_violation(arr) is not None:
                raise AssertionError("generator violated its own invariants")
            return arr


def _spans_lifted_space(arr: Arrangement) -> bool:
    return affine_rank(lift(arr).points) == arr.dim + 1
