"""Acceptance suite: one test per criterion, every tolerance pinned here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Exact assertions are exact (rational arithmetic); the only
tolerances are the ones stated with each criterion.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from minkarr import (UNDEFINED, body_to_json,
                     build_frame, chain_bound_floor, chain_to_arrangement,
                     cube_arrangement, find_intersection_violation,
                     find_minkowski_violation, greedy_chain, grid_set, lift,
                     lifted_packing_pipeline, linf_ball, partition_classes,
                     ratio, shadow, shadow_with_x, slab_pair, verify_chain,
                     verify_ratio_identity, verify_slab)
from minkarr.cli import main as cli_main
from minkarr.instances import corpus_body, random_intersecting_arrangement
from minkarr.kdistance import _chain_bound_floor_at
from minkarr.lifting import SlabPair
from minkarr.linalg import Vector
from minkarr.packing import slab_packing_check

from test_oracles import (chain_cardinality_bound, check_ratio,
                          criterion_4_corpus, cross_ratio,
                          per_pair_slab_family, trapezoid_combine)


def _report(num, text):
    print("\n[criterion %d] PASS: %s" % (num, text))


# ----------------------------------------------------------------- 1 --

def test_criterion_1_cube_construction():
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        arr = cube_arrangement(d)
        assert len(arr) == 3 ** d
        assert find_minkowski_violation(arr) is None
        assert find_intersection_violation(arr) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, "cube construction took %.2fs" % elapsed
    _report(1, "cube families of sizes 3, 9, 27 pass both predicates "
               "in %.2fs" % elapsed)


# --------------------------------------------------------------- 2+3 --

N_IDENTITY_INSTANCES = 1000
X_CHOICES = 10


def identity_cases(count):
    """The first ``count`` families of the identity corpus: 1000 rational
    pairwise-intersecting planar families over the three corpus body kinds.
    Yields (arr, cases) per family, with one (i, j, frame, sd0, xs) case
    per pair; xs holds the midpoint and 10 random common points (empty when
    the pair's single common point is the degenerate position)."""
    rng = random.Random(20240)
    for t in range(count):
        arr = random_intersecting_arrangement(rng, body=corpus_body(rng, t),
                                              n=3 + t % 3)
        cases = []
        n = len(arr)
        for i in range(n):
            for j in range(i + 1, n):
                frame = build_frame(arr, i, j)
                sd0 = shadow(arr, frame)
                span = sd0.inter_hi - sd0.inter_lo
                xs = []
                # midpoint plus 10 random common points; the measure-zero
                # position where the wedge degenerates is reported by the
                # construction and redrawn
                mid_rho = ratio(arr.members[i].ratio, arr.members[j].ratio,
                                sd0.u_i, sd0.u_j)
                if not (isinstance(mid_rho, float) and math.isinf(mid_rho)):
                    xs.append(sd0.x_coord)
                elif span == 0:
                    # single common point, degenerate: no slab exists
                    cases.append((i, j, frame, sd0, xs))
                    continue
                for _ in range(X_CHOICES):
                    denom = 16
                    while True:
                        x = sd0.inter_lo + span * F(rng.randint(0, denom), denom)
                        sd_try = shadow_with_x(sd0, x)
                        rho_try = ratio(arr.members[i].ratio,
                                        arr.members[j].ratio,
                                        sd_try.u_i, sd_try.u_j)
                        if not (isinstance(rho_try, float)
                                and math.isinf(rho_try)):
                            xs.append(x)
                            break
                        denom += 1  # degenerate wedge reported; redraw
                cases.append((i, j, frame, sd0, xs))
        yield arr, cases


@pytest.fixture(scope="session")
def identity_corpus():
    """Per pair of the identity corpus, the identity and the slab
    containment are checked at every common point of identity_cases."""
    identity_failures = []
    slab_failures = []
    ratio_args = []
    pairs_checked = 0
    for t, (arr, cases) in enumerate(identity_cases(N_IDENTITY_INSTANCES)):
        lifted = lift(arr)
        for i, j, frame, sd0, xs in cases:
            pairs_checked += 1
            lams = arr.members[i].ratio, arr.members[j].ratio
            ratio_args.append((*lams, sd0.u_i, sd0.u_j))
            for x in xs:
                sd = shadow_with_x(sd0, x)
                ratio_args.append((*lams, sd.u_i, sd.u_j))
                rho = ratio(*lams, sd.u_i, sd.u_j)
                slab = slab_pair(arr, frame, sd)
                if not verify_ratio_identity(slab, lifted.points[i],
                                             lifted.points[j], rho):
                    identity_failures.append((t, i, j, x))
                ok, offender = verify_slab(lifted, slab)
                if not ok:
                    slab_failures.append((t, i, j, offender))
    return {"identity": identity_failures, "slab": slab_failures,
            "pairs": pairs_checked, "ratio_args": ratio_args}


def test_criterion_2_ratio_identity_corpus(identity_corpus):
    assert identity_corpus["identity"] == []
    _report(2, "width-ratio identity exact on %d instances, %d pairs, "
               "%d common points each, zero failures"
            % (N_IDENTITY_INSTANCES, identity_corpus["pairs"], X_CHOICES + 1))


def test_criterion_3_slab_containment_corpus(identity_corpus):
    assert identity_corpus["slab"] == []
    _report(3, "slab containment holds for all %d pairs at every common "
               "point, zero failures" % identity_corpus["pairs"])


def test_ratio_against_the_int_form_route_on_the_identity_corpus(
        identity_corpus):
    # every ratio the corpus takes: at each pair's midpoint (the doubly
    # extreme ones included) and at each of its common points (inverted
    # wedges included)
    values = [check_ratio(args) for args in identity_corpus["ratio_args"]]
    assert math.inf in values and min(values) < 0


# ----------------------------------------------------------------- 4 --

def test_criterion_4_packing_pipeline_corpus():
    for t, arr in enumerate(criterion_4_corpus()):
        cert = lifted_packing_pipeline(arr)
        assert cert.verdict, (t, cert.failed_stage)
        assert cert.n <= 27
        assert cert.affine_dim == 3
        for _, _, rho in cert.pair_ratios:
            assert rho <= 2                       # exact rational compare
        assert cert.volume_sum == cert.n * cert.hull_volume / 27
        assert cert.volume_sum <= cert.hull_volume
    _report(4, "100 Minkowski arrangements: all pair ratios <= 2, packing "
               "certificates pass at lam=2 in dimension 3, volumes exact")


# ----------------------------------------------------------------- 5 --

def _width_family(points):
    pairs = []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            normal = points[j] - points[i]
            values = [normal.dot(p) for p in points]
            pairs.append(SlabPair(i, j, normal, min(values), max(values),
                                  normal.dot(points[i]),
                                  normal.dot(points[j])))
    return per_pair_slab_family(points, pairs)


def test_criterion_5_antipodal_packing():
    square = [Vector((F(0), F(0))), Vector((F(1), F(0))),
              Vector((F(0), F(1))), Vector((F(1), F(1)))]
    cert = slab_packing_check(_width_family(square), F(1))
    assert cert.verdict
    assert cert.n == 4 and cert.bound_effective == 4

    five = square + [Vector((F(1, 2), F(1, 2)))]
    cert5 = slab_packing_check(_width_family(five), F(1))
    assert not cert5.verdict
    assert cert5.failed_stage in ("slab_ratio", "disjointness")
    _report(5, "square vertices certify 4 <= 4 at lam=1; the 5-point "
               "instance fails at stage %r" % cert5.failed_stage)


# ----------------------------------------------------------------- 6 --

def test_criterion_6_cross_ratio():
    rng = random.Random(606)
    maps_checked = 0
    while maps_checked < 100:
        a, b = F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 3)
        c, d = F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 3)
        if a * d - b * c == 0:
            continue
        xs = []
        while len(xs) < 4:
            x = F(rng.randint(-24, 24), 8)
            if x not in xs and c * x + d != 0:
                xs.append(x)
        imgs = [(a * x + b) / (c * x + d) for x in xs]
        if len(set(imgs)) < 4:
            continue
        try:
            base = cross_ratio(*xs)
            mapped = cross_ratio(*imgs)
        except ZeroDivisionError:
            continue
        assert mapped == base                      # exact invariance
        maps_checked += 1

    limits_checked = 0
    while limits_checked < 100:
        xs = []
        while len(xs) < 3:
            x = F(rng.randint(-24, 24), 8)
            if x not in xs:
                xs.append(x)
        try:
            at_inf = cross_ratio(xs[0], xs[1], xs[2], math.inf)
        except ZeroDivisionError:
            continue
        far = F(10 ** 12 + rng.randint(0, 10 ** 6))
        near = cross_ratio(xs[0], xs[1], xs[2], far)
        assert abs(near - at_inf) < F(1, 10 ** 6)  # limit agreement
        limits_checked += 1
    _report(6, "cross-ratio invariant under 100 rational projective maps "
               "(exact); infinity rule matches the finite limit on 100 "
               "triples within 1e-6")


# ----------------------------------------------------------------- 7 --

def test_criterion_7_trapezoid_rule():
    rng = random.Random(707)
    done = 0
    while done < 1000:
        th1 = F(rng.randint(-8, 8), rng.randint(1, 4))
        th2 = F(rng.randint(-8, 8), rng.randint(1, 4))
        if th1 + th2 == 0:
            continue
        vecs = [Vector((F(rng.randint(-16, 16), 4), F(rng.randint(-16, 16), 4)))
                for _ in range(4)]
        a1, a3, b1, b3 = vecs
        a2 = (a1 * th1 + a3 * th2) / (th1 + th2)
        b2 = (b1 * th1 + b3 * th2) / (th1 + th2)
        assert trapezoid_combine(th1, th2, a1, a3, b1, b3) == b2 - a2
        done += 1
    _report(7, "rail-combination prediction exact on 1000 rational instances")


# ----------------------------------------------------------------- 8 --

def test_criterion_8_partition():
    rng = random.Random(808)
    d = 3
    mu = 2 ** (-1 / (d - 1))
    lams = [F(rng.randint(1, 2 ** 20), 2 ** 20) for _ in range(10_000)]
    labels = partition_classes(lams, d)
    assert len(labels) == len(lams)

    groups = {}
    for lam, lab in zip(lams, labels):
        # independent oracle: scan for the unique containing interval
        hits = [e for e in range(1, 64)
                if mu ** e < float(lam) <= mu ** (e - 1) + 1e-15]
        assert len(hits) == 1
        assert hits[0] == (lab.k - 1) * d + lab.l
        groups.setdefault((lab.l, lab.k), []).append(lam)

    for (l, k), vals in groups.items():
        top, bot = max(vals), min(vals)
        q = float(top / bot)
        assert q <= 1 / mu + 1e-9                 # same label: within [mu, 1/mu]
    saw_cross_block = 0
    for (l1, k1), vals1 in groups.items():
        for (l2, k2), vals2 in groups.items():
            if l1 == l2 and k1 < k2:
                q = min(vals1) / max(vals2)
                assert q > 2                       # exact rational compare
                saw_cross_block += 1
    assert saw_cross_block > 0
    _report(8, "10^4 ratios: unique covering labels, same-label quotients "
               "within [mu, 1/mu], cross-block quotients > 2 "
               "(%d label classes)" % len(groups))


# ----------------------------------------------------------------- 9 --

def test_criterion_9_greedy_chain_grids():
    for d, k in ((2, 2), (2, 3), (3, 2)):
        t0 = time.perf_counter()
        body = linf_ball(d)
        pts = grid_set(d, k)
        n = len(pts)
        target = math.ceil(math.log(n, k)) + 1
        chain = greedy_chain(body, pts, k, target)
        assert verify_chain(body, chain)
        guaranteed_length = math.floor(math.log(n, k)) + 1
        assert len(chain) >= guaranteed_length
        # the stated target exceeds the pigeonhole threshold on all three
        # grids (k^(target-1) > n), so the run is flagged best-effort
        assert chain.guaranteed == (n >= k ** (target - 1))
        arr = chain_to_arrangement(chain.points, chain.lambdas, body)
        assert find_intersection_violation(arr) is None
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
    _report(9, "greedy chains on the three benchmark grids verify and "
               "bridge to pairwise intersecting families, each under 5s")


# ---------------------------------------------------------------- 10 --

def test_criterion_10_degenerate_bounds():
    assert chain_bound_floor(3) == 1139
    assert _chain_bound_floor_at(3, 60) == _chain_bound_floor_at(3, 120) == 1139
    assert chain_bound_floor(2) is UNDEFINED
    assert math.isinf(chain_cardinality_bound(2))
    _report(10, "round budget floor(3)=1139 stable under precision "
                "doubling; d=2 surfaces the typed UNDEFINED marker and the "
                "infinite bound")


# ---------------------------------------------------------------- 11 --

def test_criterion_11_search_determinism(tmp_path, capsys):
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body_to_json(linf_ball(2))))
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        code = cli_main(["--seed", "9", "search", str(body_file),
                         "--iters", "120", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    code = cli_main(["verify", str(tmp_path / "s1.json")])
    assert code == 0
    capsys.readouterr()
    _report(11, "seeded search emits byte-identical arrangements across "
                "runs and the emitted file re-verifies with exit 0")
