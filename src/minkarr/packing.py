"""Volume-packing certificates for slab-constrained point sets.

The checked statement: if every pair of points of X comes with two distinct
parallel hyperplanes whose slab contains X, and the slab width is at most
lam >= 1 times the gap of the parallel planes through the two points, then
|X| <= (1 + lam)^d.  The verifier builds the evidence the argument predicts:
homothetic copies of the hull shrunk by 1/(1+lam) toward each point must be
pairwise interior-disjoint, so their exactly-equal volumes must fit inside
the hull.

``lifted_packing_pipeline`` wires this to arrangements on the line and in
the plane: it lifts a pairwise intersecting Minkowski arrangement of R^d
into dimension d + 1, derives every pair's slab from the shadow
construction and runs the packing check at lam = 2, whose bound (1+2)^(d+1)
is the 3^(d+1) conclusion.

A point set spanning a proper affine subspace is not an error: its affine
dimension m is the rank of the points' homogeneous integer rows less one
(``linalg.affine_rank`` on float points), and the checker drops to exact
coordinates inside the affine hull and certifies the stronger
lower-dimensional bound (certificates record this as the induction branch).

Each stage is the one place its check happens.  Disjointness of the shrunken
copies uses the witness the argument names: the copy toward y projects along
a pair's normal N onto
[N.y + (lo - N.y)/(1+lam), N.y + (hi - N.y)/(1+lam)], so the copies toward
y_a and y_b meet at most in a plane N.z = t exactly when the width ratio
|hi - lo| / |N.y_b - N.y_a| is at most lam.  The slab_ratio stage tests that
once per pair, reading N.y from the points, never from a construction's
inner offsets; the slab_containment stage checks that every point lies in
every slab and that every pair has one.  Every copy's volume is
vol(P)/(1+lam)^m by construction, so the hull volume is the only one
computed.

A family is a set of distinct slabs and, for each pair, the index of its
slab.  On an exact body the construction gives every pair on one column of
the projections the same slab (``lifting.slab_pairs``), so an exact family
has at most m slabs for the body's m half rows; every other family keeps
one slab per pair.  The check takes one row of values M.Y_k per distinct
slab from the lifted points' forms, decides containment once per slab and
reads each pair's ratio from two entries of its slab's row.  It reads the
construction's shared slabs rather than one plane per pair, so the
per-pair loop it replaced stays in ``tests/test_oracles.py`` as the oracle.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from . import scalars
from .arrangement import (Arrangement, arrangement_size_bound,
                          find_intersection_violation,
                          find_minkowski_violation)
from .lifting import (CoincidentCentersError, DegenerateWedgeError,
                      LiftedConfig, ShadowIntersectionError, Slab,
                      first_escape, lift, slab_pairs, slab_rows)
from .linalg import Vector, _int_rank, affine_coordinates, affine_rank
from .polytopes import hull, volume
from .scalars import Scalar, div, format_scalar


class SlabFamily:
    """Points, their slabs and, for pairs of them, (i, j, index of the
    pair's slab); the packing check reads a slab's normal and outer offsets
    and takes N.y from the points.  ``forms`` are the points' integer forms
    as ``LiftedConfig`` keeps them, handed on by the lift; a family built
    without them derives its own.  An exact slab is read on them."""
    __slots__ = ("points", "slabs", "pairs", "forms")

    def __init__(self, points: Tuple[Vector, ...], slabs: Tuple[Slab, ...],
                 pairs: Tuple[Tuple[int, int, int], ...],
                 forms: Optional[tuple] = None):
        n, seen = len(points), set()
        for i, j, k in pairs:
            if not (0 <= i < n and 0 <= j < n and i != j
                    and 0 <= k < len(slabs)):
                raise ValueError("pair indices out of range")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ValueError("pair (%d, %d) is listed twice" % pair)
            seen.add(pair)
        if forms is None:
            forms = LiftedConfig(points).forms
        if forms is None and any(s.exact for s in slabs):
            raise ValueError("an exact slab needs exact points")
        self.points = points
        self.slabs = slabs
        self.pairs = pairs
        self.forms = forms


class Stage(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class PackingCertificate:
    """Auditable evidence of one packing verification run."""

    def __init__(self, lam: Scalar, n: int, ambient_dim: int):
        self.lam = lam
        self.n = n
        self.ambient_dim = ambient_dim
        self.affine_dim: Optional[int] = None
        self.induction_branch = False
        self.bound: Optional[int] = None
        self.bound_effective: Optional[int] = None
        self.stages: List[Stage] = []
        self.pair_ratios: List[Tuple[int, int, Scalar]] = []
        self.hull_volume: Optional[Scalar] = None
        self.volume_sum: Optional[Scalar] = None
        self.offending_pair: Optional[Tuple[int, int]] = None
        self.verdict = False

    @property
    def failed_stage(self) -> Optional[str]:
        for s in self.stages:
            if not s.passed:
                return s.name
        return None

    def _fail(self, name: str, detail: str,
              pair: Optional[Tuple[int, int]] = None) -> "PackingCertificate":
        self.stages.append(Stage(name, False, detail))
        self.offending_pair = pair
        self.verdict = False
        return self

    def _ok(self, name: str, detail: str = "") -> None:
        self.stages.append(Stage(name, True, detail))


def slab_packing_check(family: SlabFamily, lam: Scalar) -> PackingCertificate:
    """Verify the slab hypotheses and produce the volume-packing evidence.

    Stage order: ``slab_ratio`` (every pair's width ratio against lam),
    ``slab_containment`` (every point inside every slab, and a slab for
    every pair), ``hull`` (of the points' coordinates inside their affine
    hull when their affine dimension m falls short), ``volume`` (the n
    copies of volume vol(P)/(1+lam)^m fit in the hull) and ``cardinality``
    (n <= (1+lam)^m).  The certificate stops at the first failing stage and
    records the offending pair.  The width ratio is the one per-pair test: a
    ratio at most lam says that the pair's slab planes separate its two
    copies (module docstring).  It is |hi - lo|*w_i*w_j / |row_i*w_j -
    row_j*w_i| from the row M.Y_k of the pair's slab, taken once per
    distinct slab, as is containment: a failing slab is reported at the
    first pair, in pair order, that indexes it, with the first point that
    escapes it.  The family reads the construction's shared slabs; the
    per-pair loop is the oracle in ``tests/test_oracles.py``.
    """
    n = len(family.points)
    ambient = family.points[0].dim if n else 0
    cert = PackingCertificate(lam=lam, n=n, ambient_dim=ambient)
    if scalars.lt(lam, 1):
        raise ValueError("the packing hypothesis needs lam >= 1")

    # stage: width ratios (the per-pair hypothesis and separation witness),
    # each from two entries of its slab's row of values M.Y_k
    rows = [slab_rows(slab, family.points, family.forms)
            for slab in family.slabs]
    for i, j, k in family.pairs:
        slab, (r_i, w_i), (r_j, w_j) = family.slabs[k], rows[k][i], rows[k][j]
        gap_outer = (slab.hi - slab.lo) * w_i * w_j
        gap_inner = r_i * w_j - r_j * w_i
        if scalars.sign(gap_outer) == 0:
            return cert._fail("slab_ratio", "outer planes of pair (%d, %d) "
                              "coincide" % (i, j), (i, j))
        if scalars.sign(gap_inner) == 0:
            return cert._fail("slab_ratio", "inner planes of pair (%d, %d) "
                              "coincide" % (i, j), (i, j))
        rho = div(abs(gap_outer), abs(gap_inner))
        cert.pair_ratios.append((i, j, rho))
        if not scalars.le(rho, lam):
            return cert._fail("slab_ratio",
                              "pair (%d, %d) has width ratio %s > %s"
                              % (i, j, rho, lam), (i, j))
    cert._ok("slab_ratio", "%d pairs within ratio %s" % (len(family.pairs), lam))

    # stage: every point inside every slab, decided once per slab and
    # reported at the first pair of a failing slab, and every pair with one
    escapes = list(map(first_escape, family.slabs, rows))
    for i, j, k in family.pairs:
        if escapes[k] is not None:
            return cert._fail("slab_containment",
                              "point %d escapes the slab of pair (%d, %d)"
                              % (escapes[k], i, j), (i, j))
    if len(family.pairs) < n * (n - 1) // 2:
        slabbed = {(min(i, j), max(i, j)) for i, j, _ in family.pairs}
        a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                    if (a, b) not in slabbed)
        return cert._fail("slab_containment",
                          "pair (%d, %d) has no slab" % (a, b), (a, b))
    cert._ok("slab_containment")

    # the affine dimension decides whether to reduce to exact coordinates
    # inside the affine hull: on integer forms it is the rank of the
    # homogeneous rows (Y_k, w_k), less one
    if family.forms:
        adim = _int_rank([[*y, w] for y, w in family.forms], ambient + 1) - 1
    else:
        adim = affine_rank(family.points)
    cert.affine_dim = adim
    cert.induction_branch = adim < ambient
    cert.bound = (1 + lam) ** ambient
    cert.bound_effective = (1 + lam) ** adim
    if adim == 0:
        cert._ok("hull", "all points coincide; nothing to pack")
        cert._ok("cardinality", "1 <= %s" % cert.bound)
        cert.verdict = True
        return cert
    body_hull = hull(affine_coordinates(family.points)[0]
                     if cert.induction_branch else family.points)
    if len(body_hull.vertices) <= adim:     # a float hull that lost facets
        return cert._fail("hull", "%d hull vertices cannot span affine "
                          "dimension %d" % (len(body_hull.vertices), adim))
    cert._ok("hull", "affine dimension %d, %d hull vertices"
             % (adim, len(body_hull.vertices)))

    # every pair's copies are separated by its slab planes (slab_ratio
    # stage), and each copy has volume vol(P)/(1+lam)^m
    cert.hull_volume = volume(body_hull)
    total = cert.volume_sum = div(n * cert.hull_volume, (1 + lam) ** adim)
    if not scalars.le(total, cert.hull_volume):
        return cert._fail("volume", "copy volumes exceed the hull volume")
    cert._ok("volume", "sum %s <= hull %s" % (total, cert.hull_volume))

    if n > cert.bound_effective:
        return cert._fail("cardinality", "%d > %s" % (n, cert.bound_effective))
    cert._ok("cardinality", "%d <= %s" % (n, cert.bound_effective))
    cert.verdict = True
    return cert


def family_from_arrangement(arr: Arrangement) -> SlabFamily:
    """Lift the arrangement and build its slab family (``slab_pairs``).

    An exact family on an exact body shares one integer slab among the
    pairs on each column h of the arrangement's projections, with no
    frame or shadow per pair; any other keeps one slab per pair from the
    float pair kernel, oriented on the points lifted here.  No check runs
    here: the width ratios and slab containment are stages of
    slab_packing_check.
    """
    lifted = lift(arr)
    return SlabFamily(lifted.points, *slab_pairs(arr, lifted), lifted.forms)


def lifted_packing_pipeline(arr: Arrangement) -> PackingCertificate:
    """End-to-end certificate for an arrangement of dimension <= 2.

    Requires d <= 2 (the lifted points live in dimension d + 1 <= 3, inside
    the exact volume range).  Checks the two arrangement predicates, lifts,
    and runs the packing check with lam = 2, whose slab_ratio stage tests
    every pair's width ratio against 2 and whose cardinality stage concludes
    n <= 3^(d+1) (n <= 3^m at affine dimension m < d + 1).  A pair whose
    inner slab planes coincide fails at the ``lifting`` stage, and so do a
    shadow with no common point and two centers that coincide within the
    tolerance (float input that passed the predicates within it), at the
    pair of its witness.
    """
    if arr.dim > 2:
        raise ValueError("the pipeline is implemented for dimension <= 2")
    n = len(arr.members)
    pre = PackingCertificate(lam=2, n=n, ambient_dim=arr.dim + 1)
    pre.bound = arrangement_size_bound(arr.dim)

    violation = find_minkowski_violation(arr)
    if violation is not None:
        return pre._fail("minkowski_property",
                         "member %d contains the center of member %d in its "
                         "interior" % violation, violation)
    pre._ok("minkowski_property")
    violation = find_intersection_violation(arr)
    if violation is not None:
        return pre._fail("pairwise_intersecting",
                         "members %d and %d do not intersect" % violation,
                         violation)
    pre._ok("pairwise_intersecting")

    try:
        family = family_from_arrangement(arr)
    except DegenerateWedgeError as exc:
        return pre._fail("lifting", str(exc))
    except (ShadowIntersectionError, CoincidentCentersError) as exc:
        return pre._fail("lifting", str(exc), exc.witness)
    cert = slab_packing_check(family, 2)
    cert.stages = pre.stages + cert.stages
    return cert


def _optional(v) -> object:
    return None if v is None else format_scalar(v)


def certificate_to_json(cert: PackingCertificate) -> dict:
    return {
        "lam": format_scalar(cert.lam),
        "n": cert.n,
        "ambient_dim": cert.ambient_dim,
        "affine_dim": cert.affine_dim,
        "induction_branch": cert.induction_branch,
        "bound": _optional(cert.bound),
        "bound_effective": _optional(cert.bound_effective),
        "stages": [{"name": s.name, "passed": s.passed, "detail": s.detail}
                   for s in cert.stages],
        "pair_ratios": [[i, j, format_scalar(r)]
                        for i, j, r in cert.pair_ratios],
        "hull_volume": _optional(cert.hull_volume),
        "volume_sum": _optional(cert.volume_sum),
        "offending_pair": list(cert.offending_pair)
        if cert.offending_pair else None,
        "failed_stage": cert.failed_stage,
        "verdict": "pass" if cert.verdict else "fail",
    }
