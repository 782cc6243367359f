import random
import time
from fractions import Fraction

import pytest

from minkarr import (BallBody, arrangement_to_json, l1_ball, lift,
                     linf_ball)
from minkarr.arrangement import (find_intersection_violation,
                                 find_minkowski_violation)
from minkarr.bodies import HPolytopeBody, body_from_json
from minkarr import instances
from minkarr.instances import (FLOOR_ATTEMPTS, NoArrangementFound,
                               corpus_body, random_intersecting_arrangement,
                               random_minkowski_arrangement)
from minkarr.linalg import Vector, matrix_rank

# a thin random hexagon of the benchmark's verify_exact inputs (seed 13,
# input 32); from rng seed 1 no full-lift family on it turns up, and the
# generator ran on until the benchmark's draw cap stopped it
THIN_HEXAGON = {"dim": 2, "type": "vpoly",
                "vertices": [["1/2", "1/2"], [-1, "-5/4"], ["-3/2", -2],
                             ["-1/2", "-1/2"], [1, "5/4"], ["3/2", 2]]}


def test_full_lift_gives_up_on_a_thin_hexagon():
    body = body_from_json(THIN_HEXAGON)
    t0 = time.perf_counter()
    with pytest.raises(NoArrangementFound):
        random_minkowski_arrangement(random.Random(1), body=body, n=5,
                                     full_lift=True)
    assert time.perf_counter() - t0 < 20
    assert issubclass(NoArrangementFound, ValueError)
    # every floor attempt draws n*dim >= 8 randint values (n = 4, dim = 2),
    # so a caller that caps one call at 50,000 draws always stops it first
    assert FLOOR_ATTEMPTS * 8 > 50_000


def _seeded_families(dim, body, full_lift):
    rng = random.Random("instances/%d" % dim)
    return [random_minkowski_arrangement(rng, body=body, full_lift=full_lift)
            for _ in range(2)] + [random_intersecting_arrangement(rng, body)]


@pytest.mark.parametrize("dim", [1, 3])
def test_generators_in_every_dimension(dim):
    # the float pre-screen reads every coordinate; in d = 1 at most three
    # members fit, so the generator settles for n = 3
    for body in (linf_ball(dim), l1_ball(dim)):
        for full_lift in (False, True):
            families = _seeded_families(dim, body, full_lift)
            again = _seeded_families(dim, body, full_lift)
            assert [arrangement_to_json(a) for a in families] \
                == [arrangement_to_json(a) for a in again]
            for arr in families[:2]:
                assert arr.dim == dim
                assert find_minkowski_violation(arr) is None
                if full_lift:
                    points = lift(arr).points
                    assert matrix_rank([(p - points[0]).coords
                                        for p in points[1:]]) == dim + 1
            for arr in families:
                assert find_intersection_violation(arr) is None


def test_generator_needs_a_facet_form():
    with pytest.raises(ValueError, match="facet form"):
        random_minkowski_arrangement(random.Random(1), body=BallBody(2))


def test_generator_rejects_more_centers_than_the_box_holds():
    # the box of span 4 holds 9^2 = 81 distinct centers in the plane (on a
    # line, n = 10 is refused earlier: see the d = 1 cap below)
    with pytest.raises(ValueError, match="distinct centers"):
        random_minkowski_arrangement(random.Random(1), body=linf_ball(2),
                                     n=82)


def scan_centers(rng, n, dim, span=4):
    """The centers as drawn before a set of coordinate tuples kept them:
    each kept unless ``Vector.__eq__`` finds it among those kept."""
    centers = []
    while len(centers) < n:
        c = Vector([Fraction(rng.randint(-span, span), 2) for _ in range(dim)])
        if not any(c == other for other in centers):
            centers.append(c)
    return centers


def test_random_centers_against_the_equality_scan():
    # the same centers and the same rng stream, repeats included (27
    # points in the box of span 1 in d = 3)
    for seed in range(40):
        for dim, n, span in ((1, 5, 2), (2, 20, 2), (3, 20, 1), (2, 6, 4)):
            got, want = random.Random(seed), random.Random(seed)
            assert instances._random_centers(got, n, dim, span) == \
                scan_centers(want, n, dim, span)
            assert got.getstate() == want.getstate()


def test_generator_caps_n_at_three_on_a_line():
    # sorted centers give v_n - v_1 <= lam_1 + lam_n
    # <= (v_2 - v_1) + (v_n - v_{n-1}), so at most three members fit
    for body in (linf_ball(1), l1_ball(1)):
        for full_lift in (False, True):
            rng = random.Random(7)
            t0 = time.perf_counter()
            sizes = [len(random_minkowski_arrangement(rng, body=body,
                                                      full_lift=full_lift))
                     for _ in range(5)]
            assert sizes == [3] * 5
            assert time.perf_counter() - t0 < 5
        for n in (4, 6, 10):
            with pytest.raises(ValueError, match="on a line"):
                random_minkowski_arrangement(random.Random(1), body=body, n=n)
        assert len(random_minkowski_arrangement(random.Random(1), body=body,
                                                n=2)) == 2



def test_generators_take_one_projection_per_center(monkeypatch):
    # every draw of centers takes one projection per center, and the table
    # of the draw kept serves both its ratios and the predicate checks of
    # the family returned, which take no gauge of their own
    calls, draws = [], []
    project, centers = HPolytopeBody.int_projections, instances._random_centers
    monkeypatch.setattr(HPolytopeBody, "int_projections",
                        lambda body, p: calls.append(p)
                        or project(body, p))
    monkeypatch.setattr(HPolytopeBody, "gauge", None)
    monkeypatch.setattr(instances, "_random_centers",
                        lambda *args, **kw: draws.append(centers(*args, **kw))
                        or draws[-1])
    rng = random.Random(1)
    for t in range(30):
        random_minkowski_arrangement(rng, body=corpus_body(rng, t),
                                     full_lift=True)
    assert len(calls) == sum(map(len, draws))
    assert len(draws) > 30
    calls.clear()
    draws.clear()
    for t in range(10):
        arr = random_intersecting_arrangement(rng, body=corpus_body(rng, t))
        assert find_intersection_violation(arr) is None
    assert len(calls) == sum(map(len, draws))
    assert len(draws) == 10
