import json
import math
import random
from fractions import Fraction as F

import pytest

from minkarr import (Arrangement, ChainPropertyError, Homothet, SearchConfig,
                     arrangement_from_json, arrangement_size_bound,
                     arrangement_to_json, chain_to_arrangement,
                     cube_arrangement, find_intersection_violation,
                     find_minkowski_violation, linf_ball, l1_ball,
                     partition_classes, search_arrangement)
from minkarr import arrangement
from minkarr.arrangement import (BOX_LIMIT, INSERT_ATTEMPTS, RATIO_STEPS,
                                 STAGNATION_LIMIT, _SearchState, _draw_range,
                                 _grid_fraction, _search)
from minkarr.bodies import BallBody, HPolytopeBody
from minkarr.packing import lifted_packing_pipeline
from minkarr.linalg import Vector

from test_oracles import FullPass, SkewGauge, chain_cardinality_bound


SQUARE = linf_ball(2)
DIAMOND = l1_ball(2)


def H(center, ratio):
    return Homothet(Vector([F(c) for c in center]), F(ratio))


def valid(arr):
    return (find_minkowski_violation(arr) is None
            and find_intersection_violation(arr) is None)


def test_intersects_examples():
    def meet(body, *members):
        return find_intersection_violation(Arrangement(body, members)) is None
    assert not meet(SQUARE, H((0, 0), 1), H((3, 0), 1))
    assert meet(SQUARE, H((0, 0), 1), H((2, 0), 1))  # touching counts
    assert meet(DIAMOND, H((0, 0), 1), H((1, 1), 2))


def test_center_in_interior_examples():
    def first(*members):
        return find_minkowski_violation(Arrangement(SQUARE, members))
    assert first(H((0, 0), 1), H((1, 0), 1)) is None  # boundary: not interior
    assert first(H((0, 0), 1), H((0, 0), F(1, 2))) == (0, 1)
    assert first(H((0, 0), 2), H((1, 1), 1)) == (0, 1)


def test_minkowski_predicate():
    same = Arrangement(SQUARE, (H((0, 0), 1), H((0, 0), 1)))
    assert find_minkowski_violation(same) == (0, 1)
    single = Arrangement(SQUARE, (H((0, 0), 1),))
    assert valid(single)


def test_pairwise_intersecting_predicate():
    far = Arrangement(SQUARE, (H((0, 0), 1), H((5, 0), 1)))
    assert find_intersection_violation(far) == (0, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_arrangement(d):
    arr = cube_arrangement(d)
    assert len(arr) == 3 ** d
    assert valid(arr)


def test_chain_to_arrangement_line():
    seg = linf_ball(1)
    arr = chain_to_arrangement([Vector([0]), Vector([1])], [F(1)], seg)
    assert [m.ratio for m in arr.members] == [1, 1]
    assert find_intersection_violation(arr) is None


def test_chain_to_arrangement_triangle_l2():
    ball = BallBody(2)
    pts = [Vector((0.0, 0.0)), Vector((1.0, 0.0)),
           Vector((0.5, math.sqrt(3) / 2))]
    arr = chain_to_arrangement(pts, [1.0, 1.0], ball)
    assert find_intersection_violation(arr) is None


def test_chain_property_violation_reports_pair():
    seg = linf_ball(1)
    with pytest.raises(ChainPropertyError) as err:
        chain_to_arrangement([Vector([0]), Vector([1]), Vector([5])],
                             [F(1), F(1)], seg)
    assert err.value.pair == (0, 2)


def test_chain_output_always_intersects():
    rng = random.Random(3)
    for _ in range(25):
        # valid chains: each point at gauge lam_i from every later point
        lam = [F(rng.randint(2, 6), 2)]
        pts = [Vector((F(0), F(0))), Vector((lam[0], F(0)))]
        arr = chain_to_arrangement(pts, lam, SQUARE)
        assert find_intersection_violation(arr) is None


def test_partition_examples():
    assert partition_classes([F(3, 10)], 2)[0].l == 2
    assert partition_classes([F(3, 10)], 2)[0].k == 1
    lab = partition_classes([1], 2)[0]
    assert (lab.l, lab.k) == (1, 1)
    lab = partition_classes([F(1, 2)], 3)[0]
    assert (lab.l, lab.k) == (3, 1)


def test_partition_exact_near_grid_points():
    # mu = 2^(-1/2) for d = 3: just above mu is class 1, and just above
    # mu^2 = 1/2 is class 2; float logarithms snap both onto the grid point
    assert partition_classes([F(70710678118656, 10 ** 14)], 3)[0].l == 1
    assert partition_classes([F(1, 2) + F(1, 10 ** 15)], 3)[0].l == 2


def test_float_partition_matches_exact_away_from_ends():
    rng = random.Random(19)
    for d in (2, 3, 4):
        log_mu = math.log(2 ** (-1 / (d - 1)))
        lams = [F(rng.randint(1, 4096), 4096) for _ in range(200)]
        # an interval end is a value whose base-mu logarithm is an integer
        logs = [math.log(x) / log_mu for x in lams]
        away = [x for x, t in zip(lams, logs) if abs(t - round(t)) > 1e-6]
        assert len(away) > 150
        assert partition_classes([float(x) for x in away], d) \
            == partition_classes(away, d)


def test_float_partition_snaps_to_the_right_closed_end():
    # 1/2 = mu^(d-1) closes its interval, for d = 2 and for d = 3
    for d in (2, 3):
        end = partition_classes([F(1, 2)], d)[0]
        assert partition_classes([F(1, 2) + F(1, 10 ** 12)], d)[0] != end
        for x in (0.5, 0.5 + 1e-12, 0.5 - 1e-12):
            assert partition_classes([x], d)[0] == end


def test_partition_rescales_when_needed():
    labels = partition_classes([F(4), F(2)], 2)
    # after dividing by 4 the values are 1 and 1/2
    assert (labels[0].l, labels[0].k) == (1, 1)
    assert (labels[1].l, labels[1].k) == (2, 1)


def test_partition_requires_positive():
    with pytest.raises(ValueError):
        partition_classes([F(0)], 2)
    with pytest.raises(ValueError):
        partition_classes([F(1)], 1)


def test_partition_invariants_d3():
    rng = random.Random(17)
    d = 3
    mu = 2 ** (-1 / (d - 1))
    lams = [F(rng.randint(1, 4096), 4096) for _ in range(600)]
    labels = partition_classes(lams, d)
    for lam, lab in zip(lams, labels):
        assert 1 <= lab.l <= d and lab.k >= 1
        exponent = (lab.k - 1) * d + lab.l
        lo, hi = mu ** exponent, mu ** (exponent - 1)
        x = float(lam)
        assert lo - 1e-9 < x <= hi + 1e-9
    for a in range(0, len(lams), 37):
        for b in range(a + 1, len(lams), 53):
            la, lb = labels[a], labels[b]
            q = lams[a] / lams[b]
            q = max(q, 1 / q)
            if (la.l, la.k) == (lb.l, lb.k):
                assert float(q) <= 1 / mu + 1e-9
            elif la.l == lb.l:
                assert q > 2


def test_size_bound_values():
    assert arrangement_size_bound(1) == 9
    assert arrangement_size_bound(2) == 27
    assert arrangement_size_bound(3) == 81


def test_chain_cardinality_bound():
    assert math.isinf(chain_cardinality_bound(2))
    # frozen from an independent high-precision evaluation of
    # 3 * (3 + sqrt(2))^4
    assert chain_cardinality_bound(3) == pytest.approx(1139.0285706997465,
                                                       rel=1e-12)
    v20 = chain_cardinality_bound(20)
    assert 20 * 3 ** 21 < v20 < 20 * 3.1 ** 21
    with pytest.raises(ValueError):
        chain_cardinality_bound(1)


def test_search_warm_start_keeps_cube():
    arr = search_arrangement(SQUARE, 2, SearchConfig(seed=0, iterations=30),
                             warm_start=cube_arrangement(2))
    assert len(arr) >= 9
    assert len(arr) <= arrangement_size_bound(2)
    assert valid(arr)


def test_search_zero_iterations_single_member():
    arr = search_arrangement(SQUARE, 2, SearchConfig(seed=1, iterations=0))
    assert len(arr) == 1


def test_search_deterministic():
    a = search_arrangement(DIAMOND, 2, SearchConfig(seed=4, iterations=60))
    b = search_arrangement(DIAMOND, 2, SearchConfig(seed=4, iterations=60))
    assert arrangement_to_json(a) == arrangement_to_json(b)
    c = search_arrangement(DIAMOND, 2, SearchConfig(seed=5, iterations=60))
    assert len(c) >= 1


def test_search_ball_ratios_are_short_floats(monkeypatch):
    # the ball's float gauges bound the drawn ratio as computed; turning them
    # into Fractions first wrote ratios like 660509949703278461/2^57
    monkeypatch.setattr(arrangement, "STAGNATION_LIMIT", 10)
    arr = search_arrangement(BallBody(2), 2, SearchConfig(seed=0,
                                                          iterations=150))
    assert len(arr) > 1
    assert valid(arr)
    ratios = [h["ratio"] for h in arrangement_to_json(arr)["homothets"]]
    assert any(isinstance(r, float) for r in ratios)
    assert all(isinstance(r, float) or F(r).denominator <= 64 for r in ratios)


# three squares with slack: centers (0, 0), (3/2, 0), (0, 3/2), ratio 1
TRIO = [H((0, 0), 1), H((F(3, 2), 0), 1), H((0, F(3, 2)), 1)]


def floated(members):
    """The members with float centers and ratios: the scalar route."""
    return [Homothet(Vector(float(c) for c in h.center), float(h.ratio))
            for h in members]


def member_check(members, idx, ratio):
    """The search state's decision for member idx taking the given ratio,
    on the exact route and on the scalar route, against the full predicate
    pass."""
    step = ratio / members[idx].ratio
    want = FullPass(SQUARE, list(members)).rescale(idx, step)
    exact = _SearchState(SQUARE, list(members))
    scalar = _SearchState(SQUARE, floated(members))
    assert exact.exact and not scalar.exact
    assert exact.rescale(idx, step) == want
    got = scalar.rescale(idx, step)
    assert got == (None if want is None else float(want))
    return want is not None


def test_member_check_rejects_shrink_breaking_intersection():
    # gauge(v_1 - v_0) = 3/2 > 1/3 + 1: members 0 and 1 no longer meet
    assert not member_check(TRIO, 0, F(1, 3))


def test_member_check_rejects_growth_swallowing_center():
    # member 0 at ratio 2 holds v_1 and v_2 (gauge 3/2) in its interior
    assert not member_check(TRIO, 0, F(2))


def test_member_check_accepts_harmless_step():
    for idx in range(3):
        for ratio in (F(3, 4), F(6, 5), F(3, 2), F(1, 2)):
            assert member_check(TRIO, idx, ratio)


def test_member_check_new_member_both_directions():
    cases = (((F(1, 2), F(1, 2)), F(1, 4), False),  # inside member 0
             ((F(3, 2), F(3, 2)), F(2), False),     # holds v_1 and v_2
             ((F(3, 2), F(3, 2)), F(1), True))
    for center, ratio, ok in cases:
        members = TRIO + [Homothet(Vector(center), ratio)]
        assert member_check(members, 3, ratio) is ok


def test_gauge_matrix_drop_and_append_match_recompute():
    def same(a, b):
        assert (a.g, a.q, a.box) == (b.g, b.q, b.box)
        assert list(map(list, a.rows)) == list(map(list, b.rows))
        assert list(map(list, a.proj)) == list(map(list, b.proj))
        assert [F(r) / s for r, s in a.lam] == [F(r) / s for r, s in b.lam]
        assert (a.e, a.ceils, a.floors) == (b.e, b.ceils, b.floors)
    # member 3 keeps its relations with TRIO on both bodies; (1/4, 0) lies
    # inside member 0
    members = TRIO + [H((1, 1), 1)]
    for body in (SkewGauge(), SQUARE):  # the scalar and the exact route
        def state(members):
            return _SearchState(body, list(members))
        assert state(members).exact is (body is SQUARE)
        for drop in range(len(members)):
            cut = state(members)
            cut.drop(drop)
            same(cut, state(members[:drop] + members[drop + 1:]))
        # (1/4, 0) admits no ratio, so only member 3's center is appended;
        # its drawn ratio is then set to member 3's
        grown = state(TRIO)
        assert grown.insert((1, 0), random.Random(0)) is None
        member = grown.insert((4, 4), random.Random(0))
        assert member.center == members[3].center
        assert grown.rescale(3, 1 / member.ratio) == 1
        same(grown, state(members))


def test_draws_are_the_randint_stream():
    # _grid_fraction's draws are what randint returns on the same
    # generator, which is left in the same state: integer bounds on the
    # grid 1 with n = 1, n at 2^k - 1, 2^k and 2^k + 1, widths up to 2^60
    # and negative bounds
    sweep = random.Random(3030)
    widths = [1] + [2 ** k + c for k in range(1, 61) for c in (-1, 0, 1)]
    widths += [sweep.randrange(1, 2 ** 60) for _ in range(40)]
    for n in widths:
        lo_n = sweep.randrange(-2 ** 62, 2 ** 62)
        assert _draw_range(lo_n, lo_n + n - 1, 1) == (lo_n, n, n.bit_length())
        seed = sweep.getrandbits(64)
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(6):
            assert (_grid_fraction(got, lo_n, lo_n + n - 1, 1)
                    == want.randint(lo_n, lo_n + n - 1)), n
        assert got.getstate() == want.getstate(), n
    # float bounds on and off the grid, empty ranges (no grid point in
    # [lo, hi], or hi < lo) and the weights' grid 1/8
    bounds = [(0.0, 0.0), (0.1, 0.2), (0.3, 0.1), (-0.9, -0.6), (-0.6, -0.9),
              (-2.5, 3.25), (0, 1), (-1e15, 1e15)]
    bounds += [tuple(sorted(sweep.uniform(-50, 50) for _ in range(2)))
               for _ in range(200)]
    cases = [(lo, hi, denom) for lo, hi in bounds for denom in (4, 8)]
    # the search box's widest bounds, on the centers' grid
    cases.append((-BOX_LIMIT, BOX_LIMIT, 4))
    for lo, hi, denom in cases:
        lo_n = math.ceil(lo * denom)
        hi_n = max(math.floor(hi * denom), lo_n)
        assert _draw_range(lo, hi, denom)[:2] == (lo_n, hi_n - lo_n + 1)
        seed = sweep.getrandbits(64)
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert (_grid_fraction(got, lo, hi, denom)
                    == want.randint(lo_n, hi_n)), (lo, hi)
        assert got.getstate() == want.getstate()


class Refusing:
    """Search state double on a fixed box that refuses every move and
    keeps the grids it was offered."""

    def __init__(self, box):
        self.box, self.grids = box, []

    def insert(self, grid, rng):
        self.grids.append(grid)

    def rescale(self, idx, step):
        return None


def test_search_draws_are_the_randint_stream():
    # the loop's inline center draws, replayed with randint: every move
    # refused, so each iteration draws INSERT_ATTEMPTS centers and then
    # the rescaled member (of one) and its step, and nothing else
    boxes = [([-2.0, -2.0], [2.0, 2.0]), ([-0.3, 0.1], [0.2, 0.1]),
             ([-7.25, 1e9], [3.5, 1e9 + 2 ** 30]), ([0.6, -1.0], [0.4, -2.0])]
    for seed, box in enumerate(boxes):
        state = Refusing(box)
        _search(SQUARE, 2, SearchConfig(seed=seed, iterations=40), None,
                lambda body, members: state)
        replay = random.Random(seed)
        want = []
        for _ in range(40):
            want += [[replay.randint(math.ceil(lo * 4),
                                     max(math.floor(hi * 4),
                                         math.ceil(lo * 4)))
                      for lo, hi in zip(*box)]
                     for _ in range(INSERT_ATTEMPTS)]
            replay.randrange(1)
            replay.randrange(len(RATIO_STEPS))
        assert state.grids == want, box


class Growing(Refusing):
    """``Refusing``, but accepting the first ``grow`` insertions offered,
    each the next member of the square's cube family around the start
    member, so that the search's members stay a valid arrangement; keeps
    the rescalings and drops asked of it."""

    def __init__(self, box, grow):
        super().__init__(box)
        self.cube = [h for h in cube_arrangement(2).members
                     if any(h.center.coords)][:grow]
        self.rescaled, self.dropped = [], []

    def insert(self, grid, rng):
        self.grids.append(grid)
        return self.cube.pop(0) if self.cube else None

    def rescale(self, idx, step):
        self.rescaled.append((idx, step))

    def drop(self, k):
        self.dropped.append(k)


def test_search_member_draws_are_the_randrange_stream():
    # the rescaled member, its step and the dropped member, replayed with
    # randrange: the state grows to 1 + grow members, then every move is
    # refused, so a member is dropped each STAGNATION_LIMIT iterations
    # until one is left (member counts 1..9: every draw width up to four
    # bits, redraws included)
    box = ([-2.0, -2.0], [2.0, 2.0])
    for seed, grow in enumerate((8, 5, 2)):
        iters = grow + STAGNATION_LIMIT * (grow + 2)
        state = Growing(box, grow)
        _search(SQUARE, 2, SearchConfig(seed=seed, iterations=iters), None,
                lambda body, members: state)
        replay = random.Random(seed)
        grids, rescaled, dropped = [], [], []
        n, stagnation, left = 1, 0, grow
        for _ in range(iters):
            for _attempt in range(INSERT_ATTEMPTS):
                grids.append([replay.randint(-8, 8) for _axis in range(2)])
                if left:
                    left, n, stagnation = left - 1, n + 1, 0
                    break
            else:
                idx = replay.randrange(n)
                rescaled.append((idx,
                                 RATIO_STEPS[replay.randrange(
                                     len(RATIO_STEPS))]))
                stagnation += 1
                if stagnation >= STAGNATION_LIMIT and n > 1:
                    dropped.append(replay.randrange(n))
                    n, stagnation = n - 1, 0
        assert len(dropped) == grow
        assert (state.grids, state.rescaled, state.dropped) \
            == (grids, rescaled, dropped), seed


def test_search_reads_draw_ranges_once_per_box(monkeypatch):
    # the loop takes the draw ranges (one per axis) again only when the
    # state's box is a new object, which it is only after a move that
    # changed the members, so far fewer than once per iteration
    # (the weight draw takes a range of its own, on the grid 1/8)
    calls, draw_range = [], arrangement._draw_range
    monkeypatch.setattr(arrangement, "_draw_range",
                        lambda *a: (len(a) == 2 and calls.append(a))
                        or draw_range(*a))
    boxes = []
    set_box = _SearchState._set_box

    def counted(self):
        set_box(self)
        boxes.append(self.box)
    monkeypatch.setattr(_SearchState, "_set_box", counted)
    search_arrangement(SQUARE, 2, SearchConfig(seed=4, iterations=80))
    assert 0 < len(calls) <= 2 * len(boxes) < 2 * 80


def test_box_is_the_float_box_of_the_members():
    # non-dyadic centers and ratios: the box is read in floats on both
    # routes, as the full pass reads it
    members = [H((0, 0), F(1, 3)), H((F(1, 3), F(2, 3)), F(2, 7))]
    for body in (SkewGauge(), SQUARE):
        got = _SearchState(body, list(members)).box
        assert got == FullPass(body, list(members)).box
        assert all(type(x) is float for x in got[0] + got[1])
    # the box kept is taken again after each move that changes the members
    for current in (list(members), floated(members)):
        state = _SearchState(SQUARE, list(current))

        def check():
            got = state.box
            assert got == FullPass(SQUARE, list(current)).box
            assert got == _SearchState(SQUARE, list(current)).box
        check()
        member = state.insert((3, 3), random.Random(0))  # center (3/4, 3/4)
        current.append(member)
        check()
        ratio = state.rescale(0, F(3, 2))  # now the largest ratio
        assert ratio > member.ratio
        current[0] = Homothet(current[0].center, ratio)
        check()
        state.drop(0)
        del current[0]
        check()


def test_scalar_route_takes_the_tolerance_only_when_rescaling():
    # within the run tolerance of a boundary: a rescaling that makes two
    # members touch up to 1e-12 is accepted, as by the full pass, while an
    # insertion compares without the tolerance, so a center 1e-12 inside a
    # member is interior
    members = [Homothet(Vector((0.0, 0.0)), 1.0),
               Homothet(Vector((2.0 + 1e-12, 0.0)), 1.0)]
    state = _SearchState(SQUARE, list(members))
    assert not state.exact
    assert state.rescale(0, F(1)) == 1.0
    assert FullPass(SQUARE, list(members)).rescale(0, F(1)) == 1.0
    inside = _SearchState(SQUARE, [Homothet(Vector((0.0, 0.0)), 1 + 1e-12)])
    assert inside.insert((4, 0), random.Random(0)) is None


def test_scalar_route_refuses_moves_beyond_the_float_range():
    # an insertion whose distance overflows, and a rescaling whose ratio
    # does, are infeasible; the same moves within the range are taken
    strip = HPolytopeBody(2, [(Vector((1e308, 0.0)), 1),
                              (Vector((-1e308, 0.0)), 1),
                              (Vector((0.0, 1.0)), 1),
                              (Vector((0.0, -1.0)), 1)])
    state = _SearchState(strip, [Homothet(Vector((0.0, 0.0)), 1.0)])
    assert not state.exact
    assert strip.gauge(Vector((F(2), 0))) == math.inf
    assert state.insert((8, 0), random.Random(0)) is None
    assert state.insert((0, 8), random.Random(0)) is not None
    big = _SearchState(SQUARE, [Homothet(Vector((0.0, 0.0)), 1.5e308)])
    assert big.rescale(0, F(4, 3)) is None
    assert big.rescale(0, F(3, 4)) == 1.5e308 * F(3, 4)
    assert big.box == ([-BOX_LIMIT] * 2, [BOX_LIMIT] * 2)


def test_one_projection_per_center(monkeypatch):
    calls, projections = [], []
    gauge, project = HPolytopeBody.gauge, HPolytopeBody.int_projections
    monkeypatch.setattr(HPolytopeBody, "gauge",
                        lambda body, x: calls.append(x) or gauge(body, x))
    monkeypatch.setattr(HPolytopeBody, "int_projections",
                        lambda body, p: projections.append(p)
                        or project(body, p))
    # both predicates read one table, one projection for each of the 9
    # centers
    assert lifted_packing_pipeline(cube_arrangement(2)).verdict
    assert len(projections) == 9 and not calls
    # an insertion attempt on the exact route projects its center once,
    # whatever the member count, accepted or not; the scalar route takes
    # one gauge per member it is checked against, up to the first member
    # that holds the center in its interior; a rescaling takes neither
    for members in (TRIO[:1], TRIO[:2], TRIO):
        state = _SearchState(SQUARE, list(members))
        projections.clear()
        assert state.insert((1, 0), random.Random(0)) is None  # (1/4, 0)
        assert len(projections) == 1
        assert state.insert((6, 6), random.Random(0))  # center (3/2, 3/2)
        assert len(projections) == 2
        assert state.rescale(0, F(6, 5)) == members[0].ratio * F(6, 5)
        assert len(projections) == 2 and not calls
    state = _SearchState(SQUARE, floated(TRIO))
    calls.clear()
    projections.clear()
    assert state.insert((1, 0), random.Random(0)) is None  # inside member 0
    assert len(calls) == 1
    calls.clear()
    assert state.insert((6, 6), random.Random(0))
    assert len(calls) == len(TRIO) and not projections
    assert state.rescale(0, F(6, 5)) == 1.0 * F(6, 5)
    assert len(calls) == len(TRIO) and not projections


def test_exact_search_takes_the_integer_route(monkeypatch):
    counts = {"gauge": 0, "sub": 0, "int_projections": 0, "insert": 0,
              "rescale": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def projecting(name, fn, taken):
        # each call of fn takes `taken` projections
        def wrapper(*args):
            before = counts["int_projections"]
            result = counted(name, fn)(*args)
            assert counts["int_projections"] == before + taken
            return result
        return wrapper
    monkeypatch.setattr(HPolytopeBody, "gauge",
                        counted("gauge", HPolytopeBody.gauge))
    monkeypatch.setattr(HPolytopeBody, "int_projections",
                        counted("int_projections",
                                HPolytopeBody.int_projections))
    monkeypatch.setattr(Vector, "__sub__", counted("sub", Vector.__sub__))
    monkeypatch.setattr(_SearchState, "insert",
                        projecting("insert", _SearchState.insert, 1))
    monkeypatch.setattr(_SearchState, "rescale",
                        projecting("rescale", _SearchState.rescale, 0))
    for warm in (None, cube_arrangement(2)):
        arr = search_arrangement(SQUARE, 2, SearchConfig(seed=3,
                                                         iterations=60),
                                 warm_start=warm)
        assert len(arr) > 1
    # the start table, every move and the final check read projections only
    assert counts["gauge"] == 0 and counts["sub"] == 0
    assert counts["insert"] > 0 and counts["rescale"] > 0
    assert counts["int_projections"] > counts["insert"]


def test_arrangement_json_roundtrip():
    arr = cube_arrangement(2)
    blob = json.dumps(arrangement_to_json(arr), sort_keys=True)
    back = arrangement_from_json(json.loads(blob))
    assert len(back) == 9
    assert find_minkowski_violation(back) is None
    with pytest.raises(ValueError):
        arrangement_from_json({"homothets": []})
