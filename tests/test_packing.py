import json
import random
import time
from fractions import Fraction as F

import pytest

from minkarr import (Arrangement, Homothet, cube_arrangement, lifting,
                     linf_ball, packing)
from minkarr.instances import corpus_body, random_minkowski_arrangement
from minkarr.lifting import SlabPair
from minkarr.linalg import Vector
from minkarr.polytopes import ConvexPolytope
from minkarr.packing import (SlabFamily, certificate_to_json,
                             family_from_arrangement,
                             lifted_packing_pipeline, slab_packing_check)
from test_oracles import (criterion_4_corpus, per_pair_slab_family,
                          slab_offender)


def V(*coords):
    return Vector([F(c) for c in coords])


def width_slabs(points, i, j):
    """Natural slab pair for (i, j): outer planes at the extremes of the
    point set along the direction j - i, inner planes through the points."""
    normal = points[j] - points[i]
    values = [normal.dot(p) for p in points]
    return SlabPair(i, j, normal, min(values), max(values),
                    normal.dot(points[i]), normal.dot(points[j]))


def antipodal_pairs(points):
    n = len(points)
    return [width_slabs(points, i, j) for i in range(n)
            for j in range(i + 1, n)]


def antipodal_family(points):
    return per_pair_slab_family(points, antipodal_pairs(points))


def test_square_vertices_certify_at_lam_1():
    pts = [V(0, 0), V(1, 0), V(0, 1), V(1, 1)]
    cert = slab_packing_check(antipodal_family(pts), F(1))
    assert cert.verdict
    assert cert.n == 4 and cert.bound_effective == 4
    assert cert.hull_volume == 1
    assert cert.volume_sum == 1  # tight: four quarter squares
    assert cert.failed_stage is None


def test_five_points_cannot_certify_at_lam_1():
    pts = [V(0, 0), V(1, 0), V(0, 1), V(1, 1), V(F(1, 2), F(1, 2))]
    cert = slab_packing_check(antipodal_family(pts), F(1))
    assert not cert.verdict
    assert cert.failed_stage in ("slab_ratio", "disjointness")
    assert cert.offending_pair is not None


def test_square_pair_without_slab_fails_slab_containment():
    pts = [V(0, 0), V(1, 0), V(0, 1), V(1, 1)]
    family = antipodal_family(pts)
    partial = SlabFamily(family.points, family.slabs,
                         tuple(p for p in family.pairs if p[:2] != (0, 3)))
    cert = slab_packing_check(partial, F(1))
    assert not cert.verdict
    assert cert.failed_stage == "slab_containment"
    assert cert.offending_pair == (0, 3)
    assert cert.stages[-1].detail == "pair (0, 3) has no slab"
    full = slab_packing_check(family, F(1))
    assert full.verdict
    assert [s.name for s in full.stages] == [
        "slab_ratio", "slab_containment", "hull", "volume", "cardinality"]


def test_slab_witness_reads_points_not_inner_offsets():
    # honest outer planes, inner offsets forged to the outer ones: read from
    # the offsets every ratio would be 1, but the centre's copy overlaps the
    # corners' copies, and the ratio read from the points says so
    pts = [V(0, 0), V(1, 0), V(0, 1), V(1, 1), V(F(1, 2), F(1, 2))]
    forged = [SlabPair(p.i, p.j, p.normal, p.c_k_ij, p.c_k_ji,
                       p.c_k_ij, p.c_k_ji) for p in antipodal_pairs(pts)]
    cert = slab_packing_check(per_pair_slab_family(pts, forged), F(1))
    assert not cert.verdict
    assert cert.failed_stage == "slab_ratio"
    assert cert.offending_pair == (0, 4)


def test_single_point_certificate():
    fam = SlabFamily((V(3, 4),), (), ())
    cert = slab_packing_check(fam, F(2))
    assert cert.verdict
    assert cert.affine_dim == 0
    assert cert.bound == 9


def test_coinciding_points_without_a_slab_fail():
    # no slab can separate two equal points, so the hypothesis fails before
    # the hull finds affine dimension 0
    cert = slab_packing_check(SlabFamily((V(1, 2), V(1, 2)), (), ()), F(2))
    assert not cert.verdict
    assert cert.failed_stage == "slab_containment"
    assert cert.offending_pair == (0, 1)


def test_segment_family_induction_branch():
    pts = [V(0, 0), V(1, 0)]
    cert = slab_packing_check(antipodal_family(pts), F(1))
    assert cert.verdict
    assert cert.induction_branch and cert.affine_dim == 1
    assert cert.bound_effective == 2


def test_plane_family_in_r4_takes_induction_branch():
    # the unit square's corners on a 2-flat of R^4: the hull's rank test
    # reduces the family to its plane coordinates, where it certifies
    o, b1, b2 = V(2, -1, 0, 3), V(1, 0, 1, 0), V(0, 1, 0, -1)
    pts = [o + b1 * s + b2 * t for s, t in ((0, 0), (1, 0), (0, 1), (1, 1))]
    cert = slab_packing_check(antipodal_family(pts), F(1))
    assert cert.verdict
    assert cert.ambient_dim == 4 and cert.bound == 16
    assert cert.induction_branch and cert.affine_dim == 2
    assert cert.bound_effective == 4 and cert.hull_volume == 1


def test_ratio_stage_rejects_wide_slab():
    pts = [V(0, 0), V(1, 0)]
    bad = per_pair_slab_family(
        pts, (SlabPair(0, 1, V(1, 0), F(-5), F(5), F(0), F(1)),))
    cert = slab_packing_check(bad, F(1))
    assert not cert.verdict and cert.failed_stage == "slab_ratio"


def test_containment_stage_rejects_escaping_point():
    pts = [V(0, 0), V(1, 0), V(5, 0)]
    fam = per_pair_slab_family(
        pts, (SlabPair(0, 1, V(1, 0), F(0), F(1), F(0), F(1)),))
    cert = slab_packing_check(fam, F(1))
    assert not cert.verdict and cert.failed_stage == "slab_containment"


def test_ratio_stage_rejects_coinciding_planes():
    pts = (V(0, 0), V(1, 0))
    for slab, which in ((SlabPair(0, 1, V(1, 0), F(1), F(1), F(0), F(1)),
                         "outer"),
                        (SlabPair(0, 1, V(0, 1), F(-1), F(1), F(0), F(0)),
                         "inner")):
        cert = slab_packing_check(per_pair_slab_family(pts, (slab,)), F(1))
        assert not cert.verdict and cert.failed_stage == "slab_ratio"
        assert cert.offending_pair == (0, 1)
        assert cert.stages[-1].detail \
            == "%s planes of pair (0, 1) coincide" % which
        assert cert.pair_ratios == []


def test_lam_below_one_rejected():
    with pytest.raises(ValueError):
        slab_packing_check(SlabFamily((V(0, 0),), (), ()), F(1, 2))


def test_empty_family_raises():
    with pytest.raises(ValueError, match="empty"):
        slab_packing_check(SlabFamily((), (), ()), F(2))


def test_pipeline_cube():
    cert = lifted_packing_pipeline(cube_arrangement(2))
    assert cert.verdict
    assert [s.name for s in cert.stages] == [
        "minkowski_property", "pairwise_intersecting", "slab_ratio",
        "slab_containment", "hull", "volume", "cardinality"]
    assert cert.n == 9 and cert.bound == 27
    assert cert.affine_dim == 2 and cert.induction_branch
    # equal ratios flatten the lift; the packing is tight in the plane
    assert cert.volume_sum == cert.hull_volume
    # overlapping neighbors give width ratio 2, touching pairs give 1
    assert {r for _, _, r in cert.pair_ratios} == {1, 2}


def test_pipeline_random_minkowski():
    rng = random.Random(101)
    for t in range(12):
        arr = random_minkowski_arrangement(rng, body=corpus_body(rng, t),
                                           full_lift=True)
        cert = lifted_packing_pipeline(arr)
        assert cert.verdict, cert.failed_stage
        assert cert.affine_dim == 3
        assert cert.n <= 27
        assert cert.volume_sum == cert.n * cert.hull_volume / 27
        for _, _, rho in cert.pair_ratios:
            assert rho <= 2


def test_pipeline_rejects_minkowski_violation():
    body = linf_ball(2)
    arr = Arrangement(body, (Homothet(V(0, 0), F(2)), Homothet(V(1, 0), F(1))))
    cert = lifted_packing_pipeline(arr)
    assert not cert.verdict
    assert cert.failed_stage == "minkowski_property"
    assert cert.offending_pair == (0, 1)


def test_pipeline_rejects_non_intersecting():
    body = linf_ball(2)
    arr = Arrangement(body, (Homothet(V(0, 0), F(1)), Homothet(V(9, 0), F(1))))
    cert = lifted_packing_pipeline(arr)
    assert not cert.verdict
    assert cert.failed_stage == "pairwise_intersecting"


def test_pipeline_requires_dimension_at_most_2():
    with pytest.raises(ValueError, match="dimension <= 2"):
        lifted_packing_pipeline(cube_arrangement(3))


def test_pipeline_cube_on_the_line():
    # three unit intervals at -1, 0, 1 lift to a segment of the plane
    cert = lifted_packing_pipeline(cube_arrangement(1))
    assert cert.verdict
    assert cert.ambient_dim == 2 and cert.bound == 9
    assert cert.affine_dim == 1 and cert.induction_branch
    assert cert.n == 3 and cert.bound_effective == 3
    assert {r for _, _, r in cert.pair_ratios} == {1, 2}


@pytest.mark.parametrize("full_lift", [False, True])
def test_pipeline_seeded_families_on_the_line(full_lift):
    for seed in range(20):
        arr = random_minkowski_arrangement(random.Random(seed),
                                           body=linf_ball(1),
                                           full_lift=full_lift)
        cert = lifted_packing_pipeline(arr)
        assert cert.verdict, (seed, cert.failed_stage)
        assert cert.ambient_dim == 2 and cert.n <= 9
        if full_lift:
            assert cert.affine_dim == 2


def test_family_from_arrangement_slabs_hold():
    # the cube family's 36 pairs share the square's two slabs, each on the
    # scale of the lifted forms: M.y_k lies in [lo, hi] for every point
    arr = cube_arrangement(2)
    family = family_from_arrangement(arr)
    assert len(family.pairs) == 36 and len(family.slabs) == 2
    for slab in family.slabs:
        assert slab_offender(family.points, V(*slab.normal),
                             slab.lo, slab.hi) is None


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cube_family_has_one_slab_per_axis(d):
    family = family_from_arrangement(cube_arrangement(d))
    assert len(family.slabs) == d
    assert len(family.pairs) == 3 ** d * (3 ** d - 1) // 2


def test_no_family_has_more_slabs_than_half_rows():
    for arr in criterion_4_corpus():
        family = family_from_arrangement(arr)
        assert len(family.slabs) <= len(arr.body.half_rows)


def test_four_dimensional_cube_pair_stages_under_a_second(monkeypatch):
    # the 81 cubes of dimension 4: 3,240 pairs on four slabs; the hull
    # stage after the two pair stages is stubbed out (no exact hull above
    # dimension 3), so the certificate stops there
    t0 = time.process_time()
    family = family_from_arrangement(cube_arrangement(4))
    monkeypatch.setattr(packing, "hull",
                        lambda points: ConvexPolytope(4, (), ()))
    cert = slab_packing_check(family, 2)
    elapsed = time.process_time() - t0
    assert [(s.name, s.passed) for s in cert.stages] == [
        ("slab_ratio", True), ("slab_containment", True), ("hull", False)]
    assert len(cert.pair_ratios) == 3240
    assert {r for _, _, r in cert.pair_ratios} == {1, 2}
    assert elapsed < 1.0, "d = 4 family and pair stages took %.2fs" % elapsed


def test_family_rejects_a_pair_listed_twice():
    family = antipodal_family([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    assert slab_packing_check(family, F(1)).verdict
    with pytest.raises(ValueError, match=r"pair \(0, 1\) is listed twice"):
        SlabFamily(family.points, family.slabs,
                   family.pairs + ((1, 0, 0),))
    with pytest.raises(ValueError, match="out of range"):
        SlabFamily(family.points, family.slabs, ((0, 1, 6),))


def test_family_validates_pairs_then_slabs():
    family = family_from_arrangement(cube_arrangement(2))
    assert all(slab.exact for slab in family.slabs)
    n = len(family.points)
    for pairs in (((0, n, 0),), ((-1, 0, 0),), ((0, 0, 0),),
                  ((0, 1, len(family.slabs)),), ((0, 1, -1),)):
        with pytest.raises(ValueError, match="^pair indices out of range$"):
            SlabFamily(family.points, family.slabs, pairs)
    floats = tuple(Vector([float(c) for c in p]) for p in family.points)
    with pytest.raises(ValueError, match="^an exact slab needs exact points$"):
        SlabFamily(floats, family.slabs, family.pairs)
    # the pairs are checked first: a pair listed twice, then an exact slab
    with pytest.raises(ValueError, match=r"^pair \(0, 1\) is listed twice$"):
        SlabFamily(floats, family.slabs, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="^pair indices out of range$"):
        SlabFamily(floats, family.slabs, ((0, 1, 0), (0, n, 0)))


def test_certificate_json():
    cert = lifted_packing_pipeline(cube_arrangement(2))
    blob = certificate_to_json(cert)
    text = json.dumps(blob, sort_keys=True)
    assert blob["verdict"] == "pass"
    assert blob["failed_stage"] is None
    assert "stages" in blob and text.count("passed") >= 5
    assert "copy_volumes" not in blob
    assert "disjoint_pairs_checked" not in blob
    bad = lifted_packing_pipeline(
        Arrangement(linf_ball(2), (Homothet(V(0, 0), F(2)),
                                   Homothet(V(1, 0), F(1)))))
    blob2 = certificate_to_json(bad)
    assert blob2["verdict"] == "fail"
    assert blob2["failed_stage"] == "minkowski_property"
    assert blob2["offending_pair"] == [0, 1]


def test_family_carries_the_lift_forms(monkeypatch):
    arr = cube_arrangement(2)
    family = family_from_arrangement(arr)
    assert family.forms == lifting.lift(arr).forms
    calls = []
    int_form = lifting.int_form
    monkeypatch.setattr(lifting, "int_form",
                        lambda row: calls.append(row) or int_form(row))
    cert = slab_packing_check(family, 2)
    assert cert.verdict and calls == []
    # a family built without the forms derives one per point
    rebuilt = slab_packing_check(
        SlabFamily(family.points, family.slabs, family.pairs), 2)
    assert len(calls) == len(family.points)
    assert certificate_to_json(rebuilt) == certificate_to_json(cert)
