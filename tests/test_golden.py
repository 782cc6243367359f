"""Golden bytes: ``verify --certificate`` payloads in both modes, ``lift
--dump`` output in both modes, one ``lift --svg`` diagram for committed inputs, four
``search --out`` arrangements (the square's, the disc's, the 3-D
cross-polytope's and a parallelogram's with float facets), the ``kdist grid --out`` point set {0..3}^2 and two
``kdist chain --out`` chains of that grid (under the sum norm and the
``minkowski3`` hexagon), compared byte for byte.

The outputs in tests/golden/ were written by the command line itself; the
seeded inputs ``minkowski1``-``3`` are
``random_minkowski_arrangement(full_lift=True)`` families, one per corpus
body kind, and so is ``segment`` on the interval [-1, 1], three intervals
whose pairs share one slab; ``octagon`` is one on a V-polytope given by
float vertices, whose polar facets are closed under negation only within
the tolerance, so the body stores one facet of such a pair as the exact
negation of the other; ``cross4`` and ``disc`` are hand-picked
pairwise intersecting Minkowski arrangements with rational centers on the
4-D cross-polytope given by its vertices (facet frames, the facets found
as the vertices of its polar) and on the Euclidean disc (float frames);
``pyramid`` is hand-picked so that its lift is a square pyramid, whose
hull has a facet of four vertices.  Rewrite a golden file
only for a deliberate certificate, dump format or frame rule change, and
say so.
"""

import itertools
import json
import os
import random

import pytest

from minkarr import BallBody, arrangement_to_json, body_to_json, linf_ball
from minkarr.cli import main
from minkarr.instances import corpus_body, random_minkowski_arrangement

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# pyramid: unit squares at (+-1, +-1) and a half square at the origin,
# whose lift is a square pyramid (a hull facet of four vertices)
# segment: three intervals on the line, the most that fit, whose pairs all
# share one slab
# octagon: five members on the float-vertex octagon
INPUTS = ["cube2", "minkowski1", "minkowski2", "minkowski3", "pyramid",
          "segment", "octagon"]
# the square, the diamond and the hexagon, whose facets have denominators,
# the pyramid, the segment and the octagon, under --mode float
FLOAT_INPUTS = ["minkowski1", "minkowski2", "minkowski3", "pyramid",
                "segment", "octagon"]
# the square (integer normals, minkowski1), the diamond (minkowski2), a
# hexagon (minkowski3), the cube family, the 4-D cross-polytope as a
# V-polytope (facet frames) and discs with rational centers (float frames);
# cube2 (4, 0) and cross4 (5, 2) are reversed pairs, whose frames take the
# other sign and, on a vertex tie, another facet
LIFTS = [("cube2", 0, 4), ("cube2", 4, 0), ("minkowski1", 0, 2),
         ("minkowski2", 1, 4), ("minkowski3", 1, 3), ("cross4", 2, 5),
         ("cross4", 5, 2), ("disc", 1, 2)]
# the square, the hexagon and the octagon under --mode float, whose frames,
# shadows and slabs read the float projections; the octagon's pair (0, 1)
# takes a snapped facet
FLOAT_LIFTS = [("minkowski1", 0, 2), ("minkowski3", 1, 3), ("octagon", 0, 1)]


def golden(name):
    return os.path.join(GOLDEN, name)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,mode", [
    pytest.param(name, "exact", id=name) for name in INPUTS] + [
    pytest.param(name, "float", id=name + "-float") for name in FLOAT_INPUTS])
def test_verify_certificate_bytes(name, mode, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["--mode", mode, "verify", golden(name + ".json"),
                 "--certificate", str(out)])
    capsys.readouterr()
    assert code == 0
    suffix = ".cert.json" if mode == "exact" else ".float.cert.json"
    assert out.read_bytes() == read_bytes(golden(name + suffix))


def check_lift_dump(name, i, j, mode, tmp_path, capsys):
    out = tmp_path / "dump.json"
    code = main(["--mode", mode, "lift", golden(name + ".json"), "--pair",
                 str(i), str(j), "--dump", str(out)])
    capsys.readouterr()
    assert code == 0
    infix = "" if mode == "exact" else ".float"
    assert out.read_bytes() == read_bytes(
        golden("%s%s.lift%d%d.json" % (name, infix, i, j)))


@pytest.mark.parametrize("name,i,j", LIFTS)
def test_lift_dump_bytes(name, i, j, tmp_path, capsys):
    check_lift_dump(name, i, j, "exact", tmp_path, capsys)


@pytest.mark.parametrize("name,i,j", FLOAT_LIFTS)
def test_float_lift_dump_bytes(name, i, j, tmp_path, capsys):
    check_lift_dump(name, i, j, "float", tmp_path, capsys)


def test_lift_svg_bytes(tmp_path, capsys):
    out = tmp_path / "pair.svg"
    code = main(["lift", golden("cube2.json"), "--pair", "0", "4",
                 "--svg", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == read_bytes(golden("cube2.lift04.svg"))


# the 3-D cross-polytope as CI's console-script step writes it
L1_3 = {"dim": 3, "type": "hpoly", "facets": [
    {"normal": list(signs)} for signs in itertools.product((1, -1), repeat=3)]}


# a parallelogram given by float facet normals
FLOAT_FACETS = {"dim": 2, "type": "hpoly", "facets": [
    {"normal": [1.0, 0.5]}, {"normal": [-1.0, -0.5]},
    {"normal": [0.25, 1.0]}, {"normal": [-0.25, -1.0]}]}


@pytest.mark.parametrize("name,body,iters", [
    ("square", body_to_json(linf_ball(2)), 120),
    ("disc", body_to_json(BallBody(2)), 120),
    ("l1_3", L1_3, 200),
    ("float_facets", FLOAT_FACETS, 120)],
    ids=["square", "disc", "l1_3", "float_facets"])
def test_search_out_bytes(name, body, iters, tmp_path, capsys):
    # the command CI's console-script step runs: the square's and the 3-D
    # cross-polytope's searches decide their moves on integers, the disc's
    # and the float-facet parallelogram's on floats
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    out = tmp_path / "search.json"
    code = main(["--seed", "9", "search", str(path), "--iters", str(iters),
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == read_bytes(golden(name + ".search9.json"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_inputs_regenerate(seed):
    rng = random.Random("golden/%d" % seed)
    arr = random_minkowski_arrangement(rng, body=corpus_body(rng, seed - 1),
                                       full_lift=True)
    with open(golden("minkowski%d.json" % seed), encoding="utf-8") as fh:
        assert arrangement_to_json(arr) == json.load(fh)


def test_segment_input_regenerates():
    arr = random_minkowski_arrangement(random.Random("golden/segment"),
                                       body=linf_ball(1), full_lift=True)
    assert len(arr) == 3
    with open(golden("segment.json"), encoding="utf-8") as fh:
        assert arrangement_to_json(arr) == json.load(fh)


def test_kdist_grid_out_bytes(tmp_path, capsys):
    # the command CI's console-script step runs: the point set {0..3}^2
    out = tmp_path / "grid.json"
    code = main(["kdist", "grid", "--d", "2", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == read_bytes(golden("grid23.json"))


@pytest.mark.parametrize("name,flags", [
    ("l1", ["--k", "6", "--norm", "l1"]),
    ("minkowski3", ["--k", "20", "--body", "{hexagon}"]),
], ids=["l1", "hexagon"])
def test_kdist_chain_bytes(name, flags, tmp_path, capsys):
    # the command CI's console-script step runs: exact distances of the grid
    # points under the sum norm and the minkowski3 hexagon as the body
    grid = tmp_path / "grid.json"
    hexagon = tmp_path / "hexagon.json"
    with open(golden("minkowski3.json"), encoding="utf-8") as fh:
        hexagon.write_text(json.dumps(json.load(fh)["body"]))
    out = tmp_path / "chain.json"
    assert main(["kdist", "grid", "--d", "2", "--k", "3",
                 "--out", str(grid)]) == 0
    code = main(["kdist", "chain", str(grid), "--target", "6", "--out",
                 str(out)] + [f.format(hexagon=hexagon) for f in flags])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == read_bytes(
        golden("grid23.%s.chain.json" % name))
