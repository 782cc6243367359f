import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkarr import (Arrangement, BallBody, DegenerateWedgeError, Homothet,
                     ShadowData, ShadowIntersectionError, SlabPair,
                     build_frame, cube_arrangement, lift, linf_ball,
                     pair_diagnostics, ratio, shadow, shadow_with_x,
                     slab_pair, verify_ratio_identity, verify_slab)
from minkarr import scalars
from minkarr.bodies import VPolytopeBody, l1_ball
from minkarr.instances import (corpus_body, random_intersecting_arrangement,
                               random_minkowski_arrangement)
from minkarr.linalg import Vector

from test_oracles import as_floats, cross_ratio, trapezoid_combine

SQUARE = linf_ball(2)


def H(center, ratio_):
    return Homothet(Vector([F(c) for c in center]), F(ratio_))


def arr_of(body, *members):
    return Arrangement(body, tuple(members))


def finite_ratio_x(rng, sd0, lam_i, lam_j):
    """A random common point avoiding the measure-zero degenerate position
    where the identity's denominator vanishes (reported, then redrawn)."""
    denom = 16
    while True:
        x = sd0.inter_lo + (sd0.inter_hi - sd0.inter_lo) \
            * F(rng.randint(0, denom), denom)
        sd = shadow_with_x(sd0, x)
        rho = ratio(lam_i, lam_j, sd.u_i, sd.u_j)
        if not (isinstance(rho, float) and math.isinf(rho)):
            return sd, rho
        denom += 1


# frame ----------------------------------------------------------------

def test_frame_square():
    arr = arr_of(SQUARE, H((0, 0), 1), H((2, 1), 1))
    fr = build_frame(arr, 0, 1)
    assert fr.r_vec == Vector((1, F(1, 2)))
    assert fr.f_normal == Vector((1, 0))


def test_frame_ball():
    arr = arr_of(BallBody(2), Homothet(Vector((0.0, 0.0)), 1.0),
                 Homothet(Vector((3.0, 4.0)), 1.0))
    fr = build_frame(arr, 0, 1)
    assert as_floats(fr.r_vec) == pytest.approx((0.6, 0.8))
    assert as_floats(fr.f_normal) == pytest.approx((0.6, 0.8))


@pytest.mark.parametrize("dim", [4, 5])
def test_facet_frames_lift_the_vpoly_cross_polytope(dim):
    # origin plus the 2d vertices, ratio 1: beyond dimension 3 the vpoly
    # frame is a facet of its polar's vertices, and every pair's slab holds
    # every lifted point with the ratio the facet form of l1_ball gives
    vertices = [Vector([s if k == i else 0 for k in range(dim)])
                for i in range(dim) for s in (1, -1)]
    members = tuple(Homothet(v, 1) for v in [Vector([0] * dim)] + vertices)
    arr = Arrangement(VPolytopeBody(dim, vertices), members)
    facet_arr = Arrangement(l1_ball(dim), members)
    pairs = [(i, j) for i in range(len(members))
             for j in range(i + 1, len(members))]
    assert len(pairs) == (2 * dim + 1) * dim
    for i, j in pairs:
        frame = build_frame(arr, i, j)
        diag = pair_diagnostics(arr, frame, shadow(arr, frame))
        assert diag["slab_contains_all"], (i, j)
        facet_frame = build_frame(facet_arr, i, j)
        assert diag["ratio"] == pair_diagnostics(
            facet_arr, facet_frame, shadow(facet_arr, facet_frame))["ratio"]


def test_frame_coincident_centers():
    arr = arr_of(SQUARE, H((0, 0), 1), H((0, 0), 2))
    with pytest.raises(ValueError):
        build_frame(arr, 0, 1)


# shadow ---------------------------------------------------------------

def test_shadow_touching_line():
    seg = linf_ball(1)
    arr = arr_of(seg, Homothet(Vector([F(0)]), F(1)),
                 Homothet(Vector([F(2)]), F(1)))
    sd = shadow(arr, build_frame(arr, 0, 1))
    assert sd.intervals == ((F(-1), F(1)), (F(1), F(3)))
    assert sd.x_coord == 1 and sd.u_i == 1 and sd.u_j == 1


def test_shadow_square_triple():
    arr = arr_of(SQUARE, H((0, 0), 1), H((2, 0), 1), H((1, 1), 1))
    sd = shadow(arr, build_frame(arr, 0, 1))
    assert sd.alphas == (0, 2, 1)
    assert sd.intervals == ((-1, 1), (1, 3), (0, 2))
    assert sd.x_coord == 1 and sd.u_i == 1 and sd.u_j == 1


def test_shadow_reports_witness():
    arr = arr_of(SQUARE, H((0, 0), 1), H((5, 0), 1))
    with pytest.raises(ShadowIntersectionError) as err:
        shadow(arr, build_frame(arr, 0, 1))
    assert set(err.value.witness) == {0, 1}


# ratio ----------------------------------------------------------------

def test_ratio_known_values():
    assert ratio(F(1), F(1), F(1), F(1)) == 1
    assert ratio(F(3), F(3), F(0), F(3)) == 2
    assert ratio(F(1), F(2), F(1, 2), F(1, 2)) == F(8, 3)
    assert math.isinf(ratio(F(1), F(1), F(-1), F(1)))


# lift -----------------------------------------------------------------

def test_lift_unit_ratios_fix_centers():
    arr = cube_arrangement(2)
    for h, y in zip(arr.members, lift(arr).points):
        assert y == Vector(h.center.coords + (1,))


def test_lift_divides_by_ratio():
    arr = arr_of(SQUARE, H((2, 0), 2), H((0, 0), 1))
    y = lift(arr).points[0]
    assert y == Vector((1, 0, F(1, 2)))


def unlift(y):
    """Recover (center, ratio) from a lifted point; exact in rational mode."""
    s = y[-1]
    if scalars.le(s, 0):
        raise ValueError("lifted points have positive last coordinate")
    return Vector(scalars.div(c, s) for c in y.coords[:-1]), scalars.div(1, s)


def test_lift_roundtrip_exact():
    rng = random.Random(2)
    for _ in range(40):
        center = Vector((F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)))
        lam = F(rng.randint(1, 12), 4)
        arr = arr_of(SQUARE, Homothet(center, lam))
        c, l = unlift(lift(arr).points[0])
        assert c == center and l == lam


# slab pair ------------------------------------------------------------

def test_slab_touching_line_full_construction():
    seg = linf_ball(1)
    arr = arr_of(seg, Homothet(Vector([F(0)]), F(1)),
                 Homothet(Vector([F(2)]), F(1)))
    fr = build_frame(arr, 0, 1)
    sd = shadow(arr, fr)
    sp = slab_pair(arr, fr, sd)
    lifted = lift(arr)
    y1, y2 = lifted.points
    # touching pair: the lifted points land exactly on the outer planes
    assert sp.normal.dot(y1) == sp.c_k_ij
    assert sp.normal.dot(y2) == sp.c_k_ji
    assert sp.c_g_ij == sp.c_k_ij and sp.c_g_ji == sp.c_k_ji
    assert verify_slab(lifted, sp) == (True, None)
    rho = ratio(F(1), F(1), sd.u_i, sd.u_j)
    assert rho == 1
    assert verify_ratio_identity(sp, y1, y2, rho)


def _public(slab):
    """A slab's public values, flattened, each with its type."""
    values = (*slab.normal.coords, slab.c_k_ij, slab.c_k_ji, slab.c_g_ij,
              slab.c_g_ji)
    return [(type(v), v) for v in values]


def test_slab_pair_public_values_round_trip():
    # exact values read back equal, over one integer denominator
    normal = Vector((F(2, 3), -1, F(5)))
    slab = SlabPair(0, 1, normal, F(-5, 2), 3, F(1, 7), 0)
    assert slab.den == 42 and all(type(v) is int for v in slab.plane[0])
    assert slab.normal == normal
    assert (slab.c_k_ij, slab.c_k_ji, slab.c_g_ij, slab.c_g_ji) \
        == (F(-5, 2), 3, F(1, 7), 0)
    # float or mixed values read back as given, types included
    for values in ((Vector((0.5, -1.0)), -1, 1, 0.25, 0.75),
                   (Vector((F(1, 2), 2)), -1.0, F(1), 0, 0.5)):
        slab = SlabPair(0, 1, *values)
        assert slab.den is None
        given = (*values[0].coords, *values[1:])
        assert _public(slab) == [(type(v), v) for v in given]
    # the outer offsets of a constructed slab are the ints -1 and +1
    for arr in (arr_of(SQUARE, H((0, 0), 1), H((F(3, 2), F(1, 3)), F(3, 4))),
                Arrangement(BallBody(2), (Homothet(Vector((0, 0)), F(1)),
                                          Homothet(Vector((1, 1)), F(1)))),
                Arrangement(SQUARE, (Homothet(Vector((0.0, 0.0)), 1.0),
                                     Homothet(Vector((1.5, 0.5)), 1.0)))):
        for i, j in ((0, 1), (1, 0)):
            frame = build_frame(arr, i, j)
            slab = slab_pair(arr, frame, shadow(arr, frame))
            assert sorted(_public(slab)[-4:-2]) == [(int, -1), (int, 1)]


def test_slab_symmetric_pair():
    arr = arr_of(SQUARE, H((-1, 0), 1), H((1, 0), 1))
    fr = build_frame(arr, 0, 1)
    sd = shadow(arr, fr)
    sp = slab_pair(arr, fr, sd)
    # swapping the members negates the direction and mirrors the slab
    arr_sw = arr_of(SQUARE, H((1, 0), 1), H((-1, 0), 1))
    fr_sw = build_frame(arr_sw, 0, 1)
    sd_sw = shadow(arr_sw, fr_sw)
    assert sd_sw.u_i == sd.u_j and sd_sw.u_j == sd.u_i
    sp_sw = slab_pair(arr_sw, fr_sw, sd_sw)
    gap = abs(sp.c_k_ij - sp.c_k_ji)
    gap_sw = abs(sp_sw.c_k_ij - sp_sw.c_k_ji)
    norm = sp.normal.norm_sq()
    norm_sw = sp_sw.normal.norm_sq()
    # scale-invariant widths agree
    assert gap * gap * norm_sw == gap_sw * gap_sw * norm


def test_inner_planes_separate_distinct_lifts():
    arr = arr_of(SQUARE, H((0, 0), 1), H((1, 0), 2))
    fr = build_frame(arr, 0, 1)
    sp = slab_pair(arr, fr, shadow(arr, fr))
    assert sp.c_g_ij < sp.c_g_ji


def test_slab_degenerate_at_infinite_ratio():
    # u_i = -1/2, u_j = 3/2: lam_i*u_j + lam_j*u_i vanishes, so the lifted
    # pair lies on one plane of the normal and the inner planes coincide
    arr = arr_of(linf_ball(1), H((0,), 1), H((1,), 3))
    fr = build_frame(arr, 0, 1)
    sd = shadow_with_x(shadow(arr, fr), F(-1, 2))
    assert ratio(F(1), F(3), sd.u_i, sd.u_j) == math.inf
    with pytest.raises(DegenerateWedgeError):
        slab_pair(arr, fr, sd)


def test_verify_slab_all_cube_pairs():
    arr = cube_arrangement(2)
    lifted = lift(arr)
    for i in range(9):
        for j in range(i + 1, 9):
            fr = build_frame(arr, i, j)
            sp = slab_pair(arr, fr, shadow(arr, fr))
            assert verify_slab(lifted, sp) == (True, None)


def test_verify_slab_flags_outlier():
    arr = arr_of(SQUARE, H((0, 0), 1), H((2, 0), 1))
    fr = build_frame(arr, 0, 1)
    sp = slab_pair(arr, fr, shadow(arr, fr))
    lifted = lift(arr)
    corrupted = type(lifted)(points=lifted.points + (Vector((100, 0, 1)),))
    ok, offender = verify_slab(corrupted, sp)
    assert not ok and offender == 2


def test_ratio_identity_negative_exact_expected():
    # the inverted wedge (member 1 covers member 0's center, x = -1): the
    # signed ratio is negative and the identity holds for its absolute
    # value, given with either sign, exact or as a float
    arr = arr_of(linf_ball(1), H((0,), 1), H((1,), 3))
    fr = build_frame(arr, 0, 1)
    sd = shadow_with_x(shadow(arr, fr), F(-1))
    rho = ratio(F(1), F(3), sd.u_i, sd.u_j)
    assert type(rho) is F and rho < 0
    sp = slab_pair(arr, fr, sd)
    y_i, y_j = lift(arr).points
    for expected in (rho, -rho, float(rho), -float(rho)):
        assert verify_ratio_identity(sp, y_i, y_j, expected) is True
    for expected in (2 * rho, rho - 1, -rho / 2, rho + F(1, 10 ** 30)):
        assert verify_ratio_identity(sp, y_i, y_j, expected) is False


@pytest.mark.parametrize("route", ["exact", "float", "mixed"])
def test_ratio_identity_coincident_lifted_points(route):
    # a slab whose identity holds, handed one lifted point twice: exact
    # points coincide only when equal, floats within the tolerance
    arr = arr_of(SQUARE, H((0, 0), 1), H((1, 0), 2))
    fr = build_frame(arr, 0, 1)
    sd = shadow(arr, fr)
    sp = slab_pair(arr, fr, sd)
    rho = ratio(F(1), F(2), sd.u_i, sd.u_j)
    y = lift(arr).points[0]
    y_float = Vector(as_floats(y))
    y_i, y_j, expected = {"exact": (y, y, rho),
                          "float": (y_float, y_float, float(rho)),
                          "mixed": (y, y_float, rho)}[route]
    with pytest.raises(ValueError, match="lifted points coincide"):
        verify_ratio_identity(sp, y_i, y_j, expected)
    moved = Vector(y_j.coords[:-1] + (y_j[-1] + F(1, 10 ** 12),))
    if route == "exact":
        assert verify_ratio_identity(sp, y_i, moved, expected) is True
    else:
        with pytest.raises(ValueError, match="lifted points coincide"):
            verify_ratio_identity(sp, y_i, moved, expected)


def test_ratio_identity_random_rational_instances():
    rng = random.Random(23)
    for t in range(60):
        arr = random_intersecting_arrangement(rng, body=corpus_body(rng, t))
        lifted = lift(arr)
        n = len(arr)
        for i in range(n):
            for j in range(i + 1, n):
                fr = build_frame(arr, i, j)
                sd0 = shadow(arr, fr)
                for _ in range(4):
                    sd, rho = finite_ratio_x(rng, sd0, arr.members[i].ratio,
                                             arr.members[j].ratio)
                    sp = slab_pair(arr, fr, sd)
                    assert verify_ratio_identity(sp, lifted.points[i],
                                                 lifted.points[j], rho)
                    assert verify_slab(lifted, sp)[0]


def test_ratio_identity_scaling_invariance():
    rng = random.Random(31)
    base = random_intersecting_arrangement(rng, body=SQUARE, n=3)
    for t in (F(2), F(1, 3), F(7, 5)):
        scaled = Arrangement(SQUARE, tuple(
            Homothet(h.center * t, h.ratio * t) for h in base.members))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            fr0 = build_frame(base, i, j)
            sd0 = shadow(base, fr0)
            fr1 = build_frame(scaled, i, j)
            sd1 = shadow(scaled, fr1)
            r0 = ratio(base.members[i].ratio, base.members[j].ratio,
                       sd0.u_i, sd0.u_j)
            r1 = ratio(scaled.members[i].ratio, scaled.members[j].ratio,
                       sd1.u_i, sd1.u_j)
            assert r0 == r1


def test_ratio_identity_ball_float_mode():
    ball = BallBody(2)
    arr = arr_of(ball, Homothet(Vector((0.0, 0.0)), 1.0),
                 Homothet(Vector((1.5, 0.5)), 1.25),
                 Homothet(Vector((0.5, 1.0)), 1.0))
    lifted = lift(arr)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        fr = build_frame(arr, i, j)
        sd = shadow(arr, fr)
        sp = slab_pair(arr, fr, sd)
        rho = ratio(arr.members[i].ratio, arr.members[j].ratio, sd.u_i, sd.u_j)
        assert verify_ratio_identity(sp, lifted.points[i], lifted.points[j], rho)
        assert verify_slab(lifted, sp)[0]


# cross ratio ----------------------------------------------------------

def test_cross_ratio_values():
    assert cross_ratio(0, 1, 2, 3) == F(4, 3)
    assert cross_ratio(0, 1, 2, math.inf) == 2
    with pytest.raises(ValueError):
        cross_ratio(0, 1, math.inf, math.inf)
    with pytest.raises(ZeroDivisionError):
        cross_ratio(0, 1, 1, 0)


@pytest.mark.parametrize("which", range(4))
def test_cross_ratio_at_infinity_is_the_finite_limit(which):
    # the point at infinity in any place: the finite formula at a far point
    # converges to the value with its two distances dropped
    xs = [F(-3), F(1, 2), F(2), F(7, 3)]
    at_inf, far = list(xs), list(xs)
    at_inf[which], far[which] = math.inf, F(10 ** 30)
    got = cross_ratio(*at_inf)
    assert type(got) is F
    assert abs(got - cross_ratio(*far)) < F(1, 10 ** 20)


mobius = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))
quads = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=8),
                 min_size=4, max_size=4, unique=True)


@given(m=mobius, xs=quads)
@settings(max_examples=200, deadline=None)
def test_cross_ratio_projective_invariance(m, xs):
    a, b, c, d = m
    if a * d - b * c == 0:
        return
    x1, x2, x3, x4 = xs
    if any(c * x + d == 0 for x in xs):
        return
    imgs = [(a * x + b) / (c * x + d) for x in xs]
    if len({imgs[0], imgs[1], imgs[2], imgs[3]}) < 4:
        return
    assert cross_ratio(*imgs) == cross_ratio(x1, x2, x3, x4)


# trapezoid rule -------------------------------------------------------

def test_trapezoid_combine_simple():
    a1, a3 = Vector((0, 0)), Vector((2, 0))
    b1, b3 = Vector((0, 2)), Vector((2, 2))
    mid = trapezoid_combine(F(1), F(1), a1, a3, b1, b3)
    assert mid == Vector((0, 2))
    assert trapezoid_combine(F(1), F(0), a1, a3, b1, b3) == b1 - a1
    with pytest.raises(ValueError):
        trapezoid_combine(F(1), F(-1), a1, a3, b1, b3)


def test_trapezoid_combine_random_constrained():
    rng = random.Random(13)
    for _ in range(300):
        th1 = F(rng.randint(-6, 6), rng.randint(1, 4))
        th2 = F(rng.randint(-6, 6), rng.randint(1, 4))
        if th1 + th2 == 0:
            continue
        a1 = Vector((F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2)))
        a3 = Vector((F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2)))
        b1 = Vector((F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2)))
        b3 = Vector((F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2)))
        a2 = (a1 * th1 + a3 * th2) / (th1 + th2)
        b2 = (b1 * th1 + b3 * th2) / (th1 + th2)
        assert trapezoid_combine(th1, th2, a1, a3, b1, b3) == b2 - a2


# central overlap bound ------------------------------------------------

def check_central_overlap_ratio(sd, lam_i, lam_j):
    """If the two shadow intervals meet only between the centers then the
    width ratio is at most 2; returns whether that implication held."""
    (lo_i, hi_i), (lo_j, hi_j) = sd.intervals[sd.i], sd.intervals[sd.j]
    lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
    premise = (not scalars.gt(lo, hi)
               and scalars.le(0, lo)
               and scalars.le(hi, sd.alphas[sd.j]))
    if not premise:
        return True
    value = ratio(lam_i, lam_j, sd.u_i, sd.u_j)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return scalars.le(value, 2)


def test_central_overlap_touching():
    seg = linf_ball(1)
    arr = arr_of(seg, Homothet(Vector([F(0)]), F(1)),
                 Homothet(Vector([F(2)]), F(1)))
    sd = shadow(arr, build_frame(arr, 0, 1))
    assert check_central_overlap_ratio(sd, F(1), F(1))


def test_central_overlap_without_premise_holds_vacuously():
    # the overlap [0, 2] reaches past the other center at 1: no claim, even
    # though the width ratio at the midpoint is 6
    arr = arr_of(linf_ball(1), Homothet(Vector([F(0)]), F(3)),
                 Homothet(Vector([F(1)]), F(1)))
    sd = shadow(arr, build_frame(arr, 0, 1))
    assert ratio(F(3), F(1), sd.u_i, sd.u_j) == 6
    assert check_central_overlap_ratio(sd, F(3), F(1)) is True


def test_central_overlap_infinite_ratio_fails():
    # premise met with u_i = u_j = 0: the width ratio's denominator vanishes
    # (alphas, lows, highs, den, lo_idx, hi_idx): intervals [-1, 0], [0, 1]
    sd = ShadowData(0, 1, ((0, 0), (-1, 0), (0, 1), 1, 1, 0), 0)
    assert sd.intervals == ((-1, 0), (0, 1)) and sd.u_i == sd.u_j == 0
    assert ratio(1, 1, sd.u_i, sd.u_j) == math.inf
    assert check_central_overlap_ratio(sd, 1, 1) is False


def test_central_overlap_random_minkowski_pairs():
    rng = random.Random(41)
    for t in range(40):
        arr = random_minkowski_arrangement(rng, body=corpus_body(rng, t))
        n = len(arr)
        for i in range(n):
            for j in range(i + 1, n):
                fr = build_frame(arr, i, j)
                sd = shadow(arr, fr)
                assert check_central_overlap_ratio(
                    sd, arr.members[i].ratio, arr.members[j].ratio)


def test_central_overlap_large_ratio_gap():
    # lam_i > 2 lam_j forces the overlap between the centers
    rng = random.Random(43)
    for _ in range(60):
        lam_j = F(rng.randint(1, 4), 4)
        lam_i = 2 * lam_j + F(rng.randint(1, 8), 4)
        dist = lam_i + F(rng.randint(0, 4), 8)  # within lam_i + lam_j
        if dist > lam_i + lam_j:
            continue
        arr = arr_of(SQUARE, Homothet(Vector((F(0), F(0))), lam_i),
                     Homothet(Vector((dist, F(0))), lam_j))
        fr = build_frame(arr, 0, 1)
        sd = shadow(arr, fr)
        lo = max(sd.intervals[0][0], sd.intervals[1][0])
        hi = min(sd.intervals[0][1], sd.intervals[1][1])
        assert lo >= 0 and hi <= sd.alphas[1]  # premise holds
        assert check_central_overlap_ratio(sd, lam_i, lam_j)
        rho = ratio(lam_i, lam_j, sd.u_i, sd.u_j)
        assert rho <= 2


# diagnostics ----------------------------------------------------------

def test_pair_diagnostics_serializable():
    import json
    arr = arr_of(SQUARE, H((0, 0), 1), H((2, 0), 1), H((1, 1), 1))
    frame = build_frame(arr, 0, 1)
    diag = pair_diagnostics(arr, frame, shadow(arr, frame))
    blob = json.dumps(diag, sort_keys=True)
    assert "\"ratio\"" in blob
    assert diag["slab_contains_all"] is True
    assert diag["x"] == 1
