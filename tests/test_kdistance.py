import json
import math
import random
from fractions import Fraction as F

import pytest

from minkarr import (UNDEFINED, BallBody, PointSet, chain_bound_floor,
                     chain_to_arrangement, chain_to_json,
                     find_chain_violation, find_intersection_violation,
                     greedy_chain, grid_set, guaranteed_length, linf_ball,
                     pointset_from_json, pointset_to_json, spectrum,
                     verify_chain)
from minkarr.kdistance import ChainResult
from minkarr.linalg import Vector

LINF = linf_ball(2)


def test_spectrum_unit_square_linf():
    pts = grid_set(2, 1)
    spec = spectrum(LINF, pts)
    assert spec.entries == ((F(1), 6),)


def test_spectrum_unit_square_euclidean():
    pts = PointSet(2, tuple(Vector((float(x), float(y)))
                            for x in (0, 1) for y in (0, 1)))
    spec = spectrum(BallBody(2), pts)
    assert len(spec) == 2
    (d1, m1), (d2, m2) = spec.entries
    assert d1 == pytest.approx(1.0) and m1 == 4
    assert d2 == pytest.approx(math.sqrt(2)) and m2 == 2


def test_spectrum_grid_3x3():
    spec = spectrum(LINF, grid_set(2, 2))
    assert spec.distances == (1, 2)
    assert sum(m for _, m in spec.entries) == 9 * 8 // 2


def test_is_k_distance():
    # a k-distance set realizes at most k distances
    assert len(spectrum(LINF, grid_set(2, 3))) == 3
    generic = PointSet(2, (Vector((F(0), F(0))), Vector((F(1), F(0))),
                           Vector((F(0), F(5, 7)))))
    assert len(spectrum(LINF, generic)) == 2


def test_grid_set_counts():
    assert len(grid_set(2, 1)) == 4
    g = grid_set(2, 3)
    assert len(g) == 16
    assert spectrum(LINF, g).distances == (1, 2, 3)
    g3 = grid_set(3, 2)
    assert len(g3) == 27
    assert spectrum(linf_ball(3), g3).distances == (1, 2)


def test_spectrum_grid_small_dims():
    for d in (1, 2, 3):
        for k in (1, 2, 3, 4):
            spec = spectrum(linf_ball(d), grid_set(d, k))
            assert spec.distances == tuple(range(1, k + 1))


def test_chain_bound_floor_values():
    assert chain_bound_floor(3) == 1139
    # derived: 4 * (1 + 2/(2 - 2^(1/3)))^5 = 2782.7...
    assert chain_bound_floor(4) == 2782
    assert chain_bound_floor(2) is UNDEFINED
    with pytest.raises(ValueError):
        chain_bound_floor(1)


def kdistance_threshold(dim, k):
    """k to the power of the chain bound floor, as an exact big integer;
    UNDEFINED at d = 2."""
    if k < 1:
        raise ValueError("k must be positive")
    f = chain_bound_floor(dim)
    return UNDEFINED if f is UNDEFINED else k ** f


def test_kdistance_threshold():
    big = kdistance_threshold(3, 2)
    assert big == 2 ** 1139
    assert len(str(big)) == 343
    assert kdistance_threshold(3, 1) == 1
    assert kdistance_threshold(2, 5) is UNDEFINED


def test_greedy_chain_grid_2_2():
    pts = grid_set(2, 2)
    chain = greedy_chain(LINF, pts, 2, 4)
    # frozen trace: distance-2 class from (0,0) has 5 of 8 neighbors, then
    # (0,2) sees three at distance 2, then (2,0) ties 1/1 broken to dist 1
    assert chain.indices == (0, 2, 6, 7)
    assert chain.lambdas == (2, 2, 1)
    assert chain.guaranteed  # 9 >= 2^3
    assert verify_chain(LINF, chain)
    arr = chain_to_arrangement(chain.points, chain.lambdas, LINF)
    assert find_intersection_violation(arr) is None


def test_greedy_chain_equilateral_prefix():
    pts = grid_set(2, 1)  # 1-distance set under the max norm
    chain = greedy_chain(LINF, pts, 1, 3)
    assert chain.indices == (0, 1, 2)
    assert verify_chain(LINF, chain)


def test_greedy_chain_target_one():
    chain = greedy_chain(LINF, grid_set(2, 1), 1, 1)
    assert chain.indices == (0,)
    assert chain.lambdas == ()
    assert verify_chain(LINF, chain)


def test_greedy_chain_flags_no_guarantee():
    pts = grid_set(2, 2)  # 9 points < 2^4
    chain = greedy_chain(LINF, pts, 2, 5)
    assert not chain.guaranteed
    assert verify_chain(LINF, chain)
    assert len(chain) <= 5


def test_guaranteed_length_against_brute_force():
    # the definition read off directly: the largest t <= n with
    # k^(t-1) <= n; for k >= 2 it never exceeds 13 when n <= 5000
    for k in range(2, 11):
        for n in range(5001):
            want = max((t for t in range(1, min(n, 13) + 1)
                        if k ** (t - 1) <= n), default=0)
            assert guaranteed_length(n, k) == want, (n, k)
    assert [guaranteed_length(n, 1) for n in range(6)] == [0, 1, 2, 3, 4, 5]
    # exact powers, where a floating logarithm falls just short
    assert math.log(243, 3) < 5
    assert guaranteed_length(243, 3) == 6
    assert guaranteed_length(1000, 10) == 4
    with pytest.raises(ValueError):
        guaranteed_length(5, 0)


def test_greedy_chain_one_distance_guarantees_n_points():
    # an equilateral triple under the max norm: the whole set is the chain
    pts = PointSet(2, (Vector((0, 0)), Vector((1, 0)), Vector((0, 1))))
    assert greedy_chain(LINF, pts, 1, 3).guaranteed
    chain = greedy_chain(LINF, pts, 1, 4)
    assert len(chain) == 3
    assert not chain.guaranteed


def test_greedy_chain_keys_float_classes_by_the_spectrum():
    # from the head, 1 + 0.6e-9 comes first: 1.0 and 1 + 0.6e-9 share a
    # spectrum class (anchor 1.0), and 1 + 1.2e-9 starts its own
    pts = PointSet(2, (Vector((0.0, 0.0)), Vector((1 + 0.6e-9, 0.0)),
                       Vector((0.0, 1 + 1.2e-9)), Vector((-1.0, 0.0))))
    spec = spectrum(LINF, pts)
    assert spec.distances == (1.0, 1 + 1.2e-9, 2 + 0.6e-9)
    for target in (2, 3):
        chain = greedy_chain(LINF, pts, 3, target)
        assert set(chain.lambdas) <= set(spec.distances)
        assert verify_chain(LINF, chain)
    assert greedy_chain(LINF, pts, 3, 2).indices == (0, 1)


def test_greedy_chain_keys_mixed_distances_by_the_float_spectrum():
    # one exact distance, 1/10, lies just below its float spectrum entry
    pts = PointSet(2, (Vector((0, 0)), Vector((F(1, 10), 0)),
                       Vector((0.7, 0.0))))
    spec = spectrum(LINF, pts)
    assert spec.distances == (0.1, 0.6, 0.7) and F(1, 10) < 0.1
    chain = greedy_chain(LINF, pts, 3, 3)
    assert chain.lambdas == (0.1,)
    assert verify_chain(LINF, chain)


def test_greedy_chain_rejects_non_kdistance():
    with pytest.raises(ValueError):
        greedy_chain(LINF, grid_set(2, 3), 2, 3)


def test_greedy_chain_deterministic():
    body = linf_ball(3)
    a = greedy_chain(body, grid_set(3, 2), 2, 4)
    b = greedy_chain(body, grid_set(3, 2), 2, 4)
    assert a == b


def test_pigeonhole_guarantee_on_random_subgrids():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.choice((2, 3))
        full = grid_set(2, k)
        m = rng.choice((1, 2))
        need = k ** m
        size = rng.randint(need, len(full))
        idx = sorted(rng.sample(range(len(full)), size))
        pts = PointSet(2, tuple(full.points[i] for i in idx))
        chain = greedy_chain(LINF, pts, k, m + 1)
        assert chain.guaranteed
        assert len(chain) == m + 1
        assert verify_chain(LINF, chain)


def test_verify_chain_detects_perturbation():
    pts = grid_set(2, 2)
    chain = greedy_chain(LINF, pts, 2, 4)
    broken = ChainResult(chain.indices,
                         chain.points[:-1] + (Vector((F(9), F(9))),),
                         chain.lambdas, chain.target, chain.guaranteed)
    assert not verify_chain(LINF, broken)
    assert find_chain_violation(LINF, broken) is not None


def test_two_point_chain_always_verifies():
    pts = PointSet(2, (Vector((F(0), F(0))), Vector((F(2), F(1)))))
    chain = greedy_chain(LINF, pts, 1, 2)
    assert verify_chain(LINF, chain)
    assert chain.lambdas == (2,)


def test_pointset_json_roundtrip():
    pts = grid_set(2, 2)
    back = pointset_from_json(json.loads(json.dumps(pointset_to_json(pts))))
    assert back == pts
    with pytest.raises(ValueError):
        pointset_from_json({"dim": 2})
    with pytest.raises(ValueError, match="^points 0 and 1 coincide$"):
        PointSet(2, (Vector((F(0), F(0))), Vector((F(0), F(0)))))


def test_pointset_rejects_a_dimension_mismatch_then_coincident_points():
    same = Vector((F(1), F(2)))
    with pytest.raises(ValueError, match="^point dimension mismatch$"):
        PointSet(2, (same, same, Vector((F(0),))))
    with pytest.raises(ValueError, match="^point dimension mismatch$"):
        PointSet(3, (Vector((F(0), F(0), F(0))), same))
    with pytest.raises(ValueError, match="^points 1 and 3 coincide$"):
        PointSet(2, (Vector((0, 0)), same, Vector((0.5, 0.5)), same))
    # a float among the points compares them in floats
    with pytest.raises(ValueError, match="^points 0 and 1 coincide$"):
        PointSet(2, (Vector((0.5, 2)), Vector((F(1, 2), 2))))


def test_chain_json_includes_verdict():
    pts = grid_set(2, 2)
    chain = greedy_chain(LINF, pts, 2, 4)
    blob = chain_to_json(LINF, chain)
    assert blob["verified"] is True
    assert blob["lambdas"] == [2, 2, 1]
