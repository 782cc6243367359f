import argparse
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkarr import (Homothet, Arrangement, arrangement_from_json,
                     arrangement_to_json, body_to_json, cube_arrangement, format_scalar, grid_set,
                     l1_ball, linf_ball, pointset_to_json)
from minkarr import cli, kdistance, packing, scalars
from minkarr.bodies import HPolytopeBody
from minkarr.cli import main
from minkarr.instances import (corpus_body, random_intersecting_arrangement,
                               random_minkowski_arrangement)
from minkarr.linalg import Vector
from minkarr.packing import lifted_packing_pipeline

from test_oracles import criterion_4_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(arrangement_to_json(cube_arrangement(2))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_cube_passes(cube_file, capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", cube_file,
                       "--certificate", str(cert))
    assert code == 0
    assert "9 <= 27" in out
    assert "verdict: PASS" in out
    payload = json.loads(cert.read_text())
    assert payload["certificate"]["verdict"] == "pass"


def test_verify_corrupted_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "input error" in err


def test_verify_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.json")
    assert code == 2


def test_verify_violating_file_exit_1(tmp_path, capsys):
    arr = Arrangement(linf_ball(2),
                      (Homothet(Vector((0, 0)), 2), Homothet(Vector((1, 0)), 1)))
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(arrangement_to_json(arr)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL at pair (0, 1)" in out


def test_verify_non_intersecting_file_exit_1(tmp_path, capsys):
    arr = Arrangement(linf_ball(2),
                      (Homothet(Vector((0, 0)), 1), Homothet(Vector((3, 0)), 1)))
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(arrangement_to_json(arr)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "minkowski-arrangement: PASS" in out
    assert "pairwise-intersecting: FAIL at pair (0, 1)" in out
    assert "verdict: FAIL" in out


def test_verify_non_planar_skips_certificate(tmp_path, capsys):
    path = tmp_path / "cube3.json"
    path.write_text(json.dumps(arrangement_to_json(cube_arrangement(3))))
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", str(path), "--certificate", str(cert))
    assert code == 0
    assert "lifted-packing-certificate: SKIP (needs dimension <= 2)\n" in out
    assert "verdict: PASS" in out
    payload = json.loads(cert.read_text())
    assert payload["certificate"] is None
    assert payload["checks"] == {"minkowski": True, "intersecting": True}


def test_verify_certifies_on_the_line(tmp_path, capsys):
    path = tmp_path / "cube1.json"
    path.write_text(json.dumps(arrangement_to_json(cube_arrangement(1))))
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", str(path), "--certificate", str(cert))
    assert code == 0
    assert "lifted-packing-certificate: PASS  3 <= 9\n" in out
    payload = json.loads(cert.read_text())["certificate"]
    assert (payload["ambient_dim"], payload["affine_dim"]) == (2, 1)
    assert payload["verdict"] == "pass"


def test_verify_failing_certificate_exit_1(cube_file, capsys, monkeypatch):
    def failing(arr):
        cert = lifted_packing_pipeline(arr)
        return cert._fail("disjointness", "forged", (2, 5))
    monkeypatch.setattr("minkarr.cli.lifted_packing_pipeline", failing)
    code, out, _ = run(capsys, "verify", cube_file)
    assert code == 1
    assert "lifted-packing-certificate: FAIL stage disjointness at pair " \
        "(2, 5)" in out
    assert "verdict: FAIL" in out


def test_verify_runs_each_predicate_once(cube_file, capsys, monkeypatch,
                                         tmp_path):
    """verify reads the two predicates from the planar pipeline's first
    stages instead of running them a second time."""
    calls = []
    for module in (cli, packing):
        for name in ("find_minkowski_violation",
                     "find_intersection_violation"):
            def counted(arr, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(arr)
            monkeypatch.setattr(module, name, counted)
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "verify", cube_file, "--certificate", str(cert))
    assert code == 0
    assert sorted(calls) == ["find_intersection_violation",
                             "find_minkowski_violation"]
    stages = json.loads(cert.read_text())["certificate"]["stages"]
    assert [(s["name"], s["passed"]) for s in stages[:2]] == \
        [("minkowski_property", True), ("pairwise_intersecting", True)]


def disc_hexagon(centre_ratio):
    """Unit discs on the vertices of a unit regular hexagon and one disc of
    the given ratio at its centre."""
    homothets = [{"center": [0.0, 0.0], "ratio": centre_ratio}]
    for k in range(6):
        phi = k * math.pi / 3
        homothets.append({"center": [math.cos(phi), math.sin(phi)],
                          "ratio": 1.0})
    return {"body": {"dim": 2, "type": "ball"}, "homothets": homothets}


def test_float_verify_near_degenerate_sweep(tmp_path, capsys):
    # a centre ratio of 1 - delta makes the lifted centre nearly coplanar
    # with a facet of the lifted hull: 46 log-spaced delta in [1e-12, 1e-3],
    # 18 seeded ones, and 6.43e-9, a disc hexagon that once crashed the hull
    # volume with an IndexError.  The linf cube, its image on the l1 ball
    # under (x, y) -> ((x + y)/2, (x - y)/2) and the disc hexagon all PASS
    # in float mode, and the two polytopes in exact mode too.
    rng = random.Random(11)
    deltas = [10 ** (-12 + 9 * k / 45) for k in range(46)]
    deltas += [10 ** (-12 + (k + rng.random()) / 2) for k in range(18)]
    cube = cube_arrangement(2)
    l1 = Arrangement(l1_ball(2), tuple(
        Homothet(Vector((Fraction(x + y, 2), Fraction(x - y, 2))), h.ratio)
        for h in cube.members for x, y in [h.center.coords]))
    centre = next(k for k, h in enumerate(cube.members)
                  if h.center.is_zero())
    path = tmp_path / "near.json"
    runs = 0
    for delta in deltas + [6.43e-9]:
        # the float 1 - delta as an exact rational, read alike by both modes
        ratio = format_scalar(Fraction(1 - delta))
        cases = []
        for arr in (cube, l1):
            obj = arrangement_to_json(arr)
            obj["homothets"][centre]["ratio"] = ratio
            cases += [(obj, "exact"), (obj, "float")]
        cases.append((disc_hexagon(1 - delta), "float"))
        for obj, mode in cases:
            path.write_text(json.dumps(obj))
            code, out, err = run(capsys, "--mode", mode, "verify", str(path))
            assert (code, err) == (0, ""), (delta, mode, out)
            assert "verdict: PASS" in out.splitlines()
            runs += 1
    assert runs == 5 * 65


# the unit square with four members near (1000, 1000), in floats, so that
# --mode exact takes the float route too; its lifted coordinates near 10^4
# once made the float hull reject every plane, and volume crash on no vertex
TRANSLATED_SQUARE = {"body": {"dim": 2, "type": "hpoly", "facets": [
    {"normal": [1.0, 0.0], "offset": 1}, {"normal": [-1.0, 0.0], "offset": 1},
    {"normal": [0.0, 1.0], "offset": 1}, {"normal": [0.0, -1.0], "offset": 1}]},
    "homothets": [
        {"center": [1000.8333333333334, 998.3333333333334], "ratio": 0.5},
        {"center": [1000.8333333333334, 998.8333333333334], "ratio": 0.0625},
        {"center": [1001.3333333333334, 999.3333333333334], "ratio": 0.5},
        {"center": [998.3333333333334, 998.8333333333334], "ratio": 2.5}]}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_translated_square_passes(mode, tmp_path, capsys):
    path = tmp_path / "translated.json"
    path.write_text(json.dumps(TRANSLATED_SQUARE))
    code, out, err = run(capsys, "--mode", mode, "verify", str(path))
    assert (code, err) == (0, ""), out
    assert "verdict: PASS" in out.splitlines()


def translated_corpus(shift):
    """The criterion-4 corpus with every center moved by (shift, shift), as
    float JSON values."""
    for arr in criterion_4_corpus():
        obj = arrangement_to_json(arr)
        for h, member in zip(obj["homothets"], arr.members):
            h["center"] = [float(c + shift) for c in member.center]
            h["ratio"] = float(member.ratio)
        yield obj


def test_translated_corpus_passes_in_float_mode(tmp_path, capsys):
    path = tmp_path / "translated.json"
    for obj in translated_corpus(1000 + Fraction(1, 3)):
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "--mode", "float", "verify", str(path))
        assert (code, err) == (0, ""), out
        assert "verdict: PASS" in out.splitlines()


def test_far_translated_corpus_exits_0_or_1(tmp_path, capsys):
    # near 10^5 the float hull may lose facets: a failed hull stage or a
    # PASS, never an internal error
    path = tmp_path / "translated.json"
    codes = set()
    for obj in translated_corpus(10 ** 5 + Fraction(1, 7)):
        path.write_text(json.dumps(obj))
        for mode in ("exact", "float"):
            code, out, err = run(capsys, "--mode", mode, "verify", str(path))
            assert code in (0, 1) and err == "", (mode, out, err)
            assert not any(line.startswith("internal error:")
                           for line in (out + err).splitlines())
            codes.add(code)
    assert 0 in codes


def test_verify_internal_error_exit_2(cube_file, capsys, monkeypatch):
    def broken(arr):
        raise IndexError("list index out of range")
    monkeypatch.setattr("minkarr.cli.lifted_packing_pipeline", broken)
    code, _, err = run(capsys, "verify", cube_file)
    assert code == 2
    assert err == "internal error: IndexError: list index out of range\n"
    assert "Traceback" not in err


@pytest.fixture
def square_body_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(body_to_json(linf_ball(2))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["kdist", "grid", "--d", "0", "--k", "2"],
    ["kdist", "grid", "--d", "2", "--k", "-1"],
    ["search", "{square}", "--iters", "-5"],
], ids=["d-zero", "k-negative", "iters-negative"])
def test_kdist_bad_flags_exit_2_as_input_errors(argv, cube_file,
                                                square_body_file, capsys):
    argv = [a.format(cube=cube_file, square=square_body_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error: "), err
    assert "internal error" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--eps", "0", "kdist", "grid", "--d", "2", "--k", "2"],
    ["--eps", "0", "verify", "{cube}"],
    ["--eps", "0", "lift", "{cube}", "--pair", "0", "1"],
    ["--eps", "0", "search", "{square}", "--iters", "5"],
    ["--mode", "float", "--eps=inf", "verify", "{cube}"],
    ["--mode", "float", "--eps=-inf", "verify", "{cube}"],
    ["--mode", "float", "--eps=nan", "verify", "{cube}"],
    ["--mode", "float", "--eps", "0.5", "verify", "{cube}"],
    ["--mode", "float", "--eps", "1e300", "verify", "{cube}"],
    ["--eps", "1e-6", "verify", "{cube}"],
], ids=["eps-zero", "eps-zero-verify", "eps-zero-lift", "eps-zero-search",
        "inf", "-inf", "nan", "0.5", "1e300", "1e-6"])
def test_eps_is_no_flag(argv, cube_file, square_body_file, capsys):
    # the float tolerance is the constant scalars.TOLERANCE: any --eps, the
    # values once rejected as input errors included, is a usage error
    argv = [a.format(cube=cube_file, square=square_body_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(cli.build_parser().format_usage())
    assert "--eps" not in cli.build_parser().format_help()


SQUARE_JSON = body_to_json(linf_ball(2))
BALL_JSON = {"dim": 2, "type": "ball"}
BEYOND_FLOATS = [{"center": [0, 0], "ratio": 1},
                 {"center": [1, 0], "ratio": "1e999"}]
UNIT_PAIR = [{"center": [0, 0], "ratio": 1}, {"center": [0, 1], "ratio": 1}]


def strip_json(x):
    """The strip |a*x| <= 1, |y| <= 1 with a = x, as an hpoly body."""
    return {"dim": 2, "type": "hpoly", "facets": [
        {"normal": [x, 0]}, {"normal": ["-" + x, 0]},
        {"normal": [0, 1]}, {"normal": [0, -1]}]}


@pytest.mark.parametrize("argv,payload", [
    (["verify"], {"body": BALL_JSON, "homothets": BEYOND_FLOATS}),
    (["--mode", "float", "verify"], {"body": SQUARE_JSON,
                                     "homothets": BEYOND_FLOATS}),
    (["kdist", "spectrum"], {"dim": 2,
                             "points": [[0, 0], [1.5, 0], ["1e999", 1]]}),
    (["--mode", "float", "verify"], {"body": strip_json("1e999"),
                                     "homothets": UNIT_PAIR}),
    (["--mode", "float", "lift", "--pair", "0", "1"],
     {"body": strip_json("1e999"), "homothets": UNIT_PAIR}),
], ids=["ball", "float-mode", "float-point", "float-facet",
        "float-facet-lift"])
def test_exact_scalar_beyond_floats_on_a_float_route(argv, payload, tmp_path,
                                                     capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "input error: scalar 1.000000e+999 is beyond the float " \
        "range\n"


BELOW_FLOATS = [{"center": [0, 0], "ratio": 1},
                {"center": [1, 0], "ratio": "1e-999"}]


@pytest.mark.parametrize("argv,payload,shown", [
    (["verify"], {"body": BALL_JSON, "homothets": BELOW_FLOATS},
     "1.000000e-999"),
    (["lift", "--pair", "0", "1"], {"body": BALL_JSON,
                                    "homothets": BELOW_FLOATS},
     "1.000000e-999"),
    (["--mode", "float", "verify"], {"body": SQUARE_JSON,
                                     "homothets": BELOW_FLOATS},
     "1.000000e-999"),
    # a subnormal float exists, but not its reciprocal, which the lift takes
    (["verify"], {"body": BALL_JSON, "homothets": [
        {"center": [0, 0], "ratio": 1}, {"center": [1, 0], "ratio": "1e-310"}]},
     "1.000000e-310"),
    # the facet's float would be 0, a zero normal
    (["--mode", "float", "verify"], {"body": strip_json("1e-999"),
                                     "homothets": UNIT_PAIR},
     "1.000000e-999"),
    (["--mode", "float", "lift", "--pair", "0", "1"],
     {"body": strip_json("1e-999"), "homothets": UNIT_PAIR},
     "1.000000e-999"),
], ids=["ball", "ball-lift", "float-mode", "subnormal", "float-facet",
        "float-facet-lift"])
def test_exact_scalar_below_floats_on_a_float_route(argv, payload, shown,
                                                    tmp_path, capsys):
    # the first three once ended in an internal OverflowError (the ball) and
    # in a misleading "homothety ratios must be positive" (float mode)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "input error: scalar %s is below the float range\n" % shown


def test_float_mode_loads_float_facets(monkeypatch):
    # --mode float reads the body's facets as floats, the canonical normals
    # each passed through float(); exact mode keeps the loaded body itself
    loaded = []

    def load(obj):
        loaded.append(arrangement_from_json(obj))
        return loaded[-1]

    monkeypatch.setattr(cli, "arrangement_from_json", load)
    path = str(GOLDEN / "minkowski3.json")
    exact = cli._load_arrangement(argparse.Namespace(arrangement=path,
                                                     mode="exact"))
    assert exact.body is loaded[-1].body and exact.body.exact
    arr = cli._load_arrangement(argparse.Namespace(arrangement=path,
                                                   mode="float"))
    assert type(arr.body) is HPolytopeBody and not arr.body.exact
    assert all(type(c) is float for a in arr.body.facets for c in a)
    assert [a.coords for a in arr.body.facets] == [
        tuple(map(float, a)) for a in loaded[-1].body.facets]


def test_float_mode_lift_dump_has_float_normals(tmp_path, capsys):
    # the frame normal and the slab normal are read from the float facets
    dumps = {}
    for mode in ("exact", "float"):
        dump = tmp_path / ("%s.json" % mode)
        code, _, _ = run(capsys, "--mode", mode, "lift",
                         str(GOLDEN / "minkowski3.json"), "--pair", "1", "3",
                         "--dump", str(dump))
        assert code == 0
        dumps[mode] = json.loads(dump.read_text())
    assert dumps["exact"]["frame"]["f_normal"] == [0, "-4/7"]
    assert dumps["exact"]["slab"]["normal"][:2] == [0, "-4/7"]
    assert dumps["float"]["frame"]["f_normal"] == [0.0, -0.5714285714285714]
    assert dumps["float"]["slab"]["normal"][:2] == [0.0, -0.5714285714285714]


@pytest.mark.parametrize("dim", [10 ** 400, 2 ** 60], ids=["1e400", "2^60"])
@pytest.mark.parametrize("command", ["search", "spectrum"])
def test_dim_above_the_cap_is_an_input_error(dim, command, tmp_path, capsys):
    # 10**400 once ended in an internal OverflowError, and 2**60 allocated
    # until memory ran out; both are now refused as they are parsed
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"dim": dim, "type": "ball"} if command ==
                               "search" else {"dim": dim, "points": []}))
    argv = {"search": ["search"], "spectrum": ["kdist", "spectrum"]}[command]
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "input error: 'dim' must be at most %d\n" % scalars.MAX_DIM


def test_exact_scalar_beyond_floats_stays_exact(tmp_path, capsys):
    big = 10 ** 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"body": SQUARE_JSON, "homothets": [
        {"center": [0, 0], "ratio": big}, {"center": [big, 0], "ratio": big},
        {"center": [0, big], "ratio": big}]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "lifted-packing-certificate: PASS  3 <= 27" in out
    path.write_text(json.dumps({"body": SQUARE_JSON,
                                "homothets": BELOW_FLOATS}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "verdict: PASS" in out


@pytest.mark.parametrize("command,flag", [
    ("search", "--out"), ("verify", "--certificate"),
    ("lift", "--dump"), ("lift", "--svg"),
    ("grid", "--out"), ("chain", "--out"),
])
def test_unwritable_output_exit_2_as_input_error(command, flag, cube_file,
                                                 square_body_file, grid_file,
                                                 tmp_path, capsys):
    # every output file is written before the report, so stdout stays empty
    target = str(tmp_path / "missing" / "out")
    argv = {"search": ["search", square_body_file, "--iters", "5"],
            "verify": ["verify", cube_file],
            "lift": ["lift", cube_file, "--pair", "0", "1"],
            "grid": ["kdist", "grid", "--d", "2", "--k", "3"],
            "chain": ["kdist", "chain", grid_file, "--k", "3"]}[command]
    code, out, err = run(capsys, *argv, flag, target)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: cannot write %s: " % target), err
    assert err.count("\n") == 1
    assert "internal error" not in err


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_exit_2_as_output_error(unbuffered, cube_file):
    # unbuffered, the first print meets the closed pipe; buffered, the
    # flush at exit once did, and the interpreter exited 120
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "minkarr", "verify", cube_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ("input error: cannot write to stdout: "
                           "[Errno 32] Broken pipe\n")


def test_lift_svg_and_dump(cube_file, capsys, tmp_path):
    svg = tmp_path / "pair.svg"
    dump = tmp_path / "pair.json"
    code, out, _ = run(capsys, "lift", cube_file, "--pair", "0", "1",
                       "--svg", str(svg), "--dump", str(dump))
    assert code == 0
    assert "width ratio" in out
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "projection plane" in text
    diag = json.loads(dump.read_text())
    assert diag["pair"] == [0, 1]
    assert diag["slab_contains_all"] is True


def test_lift_pair_out_of_range(cube_file, capsys):
    code, _, err = run(capsys, "lift", cube_file, "--pair", "0", "99")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("centers,message", [
    ((0, 0), "coincident centers: members 0 and 1"),
    ((0, 5), "shadow intervals of members 1 and 0 are disjoint; the family "
             "is not pairwise intersecting"),
], ids=["coincident", "disjoint"])
def test_lift_construction_failure_exit_1(tmp_path, capsys, centers,
                                          message):
    arr = Arrangement(linf_ball(1), tuple(Homothet(Vector((c,)), 1)
                                          for c in centers))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(arrangement_to_json(arr)))
    dump, svg = tmp_path / "pair.dump.json", tmp_path / "pair.svg"
    code, out, err = run(capsys, "lift", str(path), "--pair", "0", "1",
                         "--dump", str(dump), "--svg", str(svg))
    assert code == 1
    assert out == "seed: 0\nmode: exact  eps: %g\n" % scalars.TOLERANCE
    assert err == "construction failed: %s\n" % message
    # a failed construction writes no output file
    assert not dump.exists() and not svg.exists()


def test_lift_ratio_matches_identity(cube_file, capsys, tmp_path):
    dump = tmp_path / "d.json"
    code, out, _ = run(capsys, "lift", cube_file, "--pair", "0", "2",
                       "--dump", str(dump))
    assert code == 0
    diag = json.loads(dump.read_text())
    # touching pair along one axis: ratio exactly 1
    assert diag["ratio"] == 1


def test_search_deterministic_and_reverifies(tmp_path, capsys):
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body_to_json(linf_ball(2))))
    out1 = tmp_path / "a1.json"
    out2 = tmp_path / "a2.json"
    code1, rep1, _ = run(capsys, "--seed", "3", "search", str(body_file),
                         "--iters", "40", "--out", str(out1))
    code2, rep2, _ = run(capsys, "--seed", "3", "search", str(body_file),
                         "--iters", "40", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "seed: 3" in rep1
    code3, out3, _ = run(capsys, "verify", str(out1))
    assert code3 == 0


def test_search_with_warm_start(tmp_path, capsys, cube_file):
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body_to_json(linf_ball(2))))
    code, out, _ = run(capsys, "search", str(body_file), "--iters", "5",
                       "--init", cube_file)
    assert code == 0
    size = int(out.split("best size: ")[1].split()[0])
    assert size >= 9


@pytest.mark.parametrize("big,iters", [(1e20, "20"), (10 ** 20, "1000")],
                         ids=["float", "exact"])
def test_search_on_a_huge_facet_normal(big, iters, tmp_path, capsys):
    # the strip |x| <= 1e-20: each insertion can take a ratio about 1e20
    # times the last, until a float distance or ratio leaves the float
    # range (float facets) or an exact ratio would take the box past it
    # (exact facets); such a float move is infeasible and the box stays
    # finite, so the search ends with a verified arrangement
    body_file = tmp_path / "strip.json"
    body_file.write_text(json.dumps({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [big, 0]}, {"normal": [-big, 0]},
        {"normal": [0, 1]}, {"normal": [0, -1]}]}))
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, "search", str(body_file), "--iters", iters,
                         "--out", str(out_file))
    assert (code, err) == (0, "")
    assert "re-verified: PASS" in out.splitlines()
    homothets = json.loads(out_file.read_text())["homothets"]
    assert len(homothets) > 1
    assert all(math.isfinite(float(Fraction(h["ratio"]))) for h in homothets)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_searched_strip_fails_its_lifting_stage(mode, tmp_path, capsys):
    # the strip's search output passes both predicates within the
    # tolerance, but a shadow of it has no common point: a failed lifting
    # stage at the witness pair, not an internal error
    body_file = tmp_path / "strip.json"
    body_file.write_text(json.dumps({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1e20, 0]}, {"normal": [-1e20, 0]},
        {"normal": [0, 1]}, {"normal": [0, -1]}]}))
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, "search", str(body_file), "--iters", "20",
                     "--out", str(out_file))
    assert code == 0
    cert_file = tmp_path / "cert.json"
    code, out, err = run(capsys, "--mode", mode, "verify", str(out_file),
                         "--certificate", str(cert_file))
    assert (code, err) == (1, "")
    assert "lifted-packing-certificate: FAIL stage lifting at pair (2, 0)" \
        in out.splitlines()
    cert = json.loads(cert_file.read_text())["certificate"]
    assert (cert["failed_stage"], cert["offending_pair"]) == ("lifting",
                                                              [2, 0])


# two members 9e-10 apart, within the tolerance: both predicates pass
NEAR_COINCIDENT = [{"center": [0.0, 0.0], "ratio": 1.5e-9},
                   {"center": [9e-10, 0.0], "ratio": 1.5e-9}]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("body", [SQUARE_JSON, BALL_JSON],
                         ids=["square", "ball"])
def test_coincident_centers_fail_the_lifting_stage(body, mode, tmp_path,
                                                   capsys):
    # centers that the predicates pass within the tolerance and the frame
    # then finds coincident: a failed lifting stage at the pair, not an
    # internal error; lift reports the construction failure as before
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"body": body, "homothets": NEAR_COINCIDENT}))
    cert_file = tmp_path / "cert.json"
    code, out, err = run(capsys, "--mode", mode, "verify", str(path),
                         "--certificate", str(cert_file))
    assert (code, err) == (1, "")
    assert "internal error:" not in out
    assert out.splitlines()[2:] == [
        "minkowski-arrangement: PASS", "pairwise-intersecting: PASS",
        "lifted-packing-certificate: FAIL stage lifting at pair (0, 1)",
        "certificate written to %s" % cert_file, "verdict: FAIL"]
    cert = json.loads(cert_file.read_text())["certificate"]
    assert (cert["failed_stage"], cert["offending_pair"]) == ("lifting",
                                                              [0, 1])
    assert cert["stages"][-1]["detail"] == \
        "coincident centers: members 0 and 1"
    code, out, err = run(capsys, "--mode", mode, "lift", str(path),
                         "--pair", "0", "1")
    assert code == 1
    assert out == "seed: 0\nmode: %s  eps: %g\n" % (mode, scalars.TOLERANCE)
    assert err == "construction failed: coincident centers: members 0 and 1\n"


@pytest.mark.parametrize("flag,body,warm,route", [
    ("float", {"dim": 2, "type": "hpoly", "facets": [
        {"normal": ["1/3", 0]}, {"normal": ["-1/3", 0]},
        {"normal": [0, 1]}, {"normal": [0, -1]}]}, None, "exact"),
    ("exact", {"dim": 2, "type": "ball"}, None, "float"),
    ("exact", {"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1, 0]}, {"normal": [-1, 0]},
        {"normal": [0, 1]}, {"normal": [0, -1]}]},
     [{"center": [0.0, 0.0], "ratio": 1}], "float"),
], ids=["exact-body-under-float", "ball-under-exact", "float-warm-start"])
def test_search_banner_names_the_route_it_ran(flag, body, warm, route,
                                              tmp_path, capsys):
    # search takes its route from the input whatever --mode says: exact on
    # an exact body with exact members, float otherwise
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body))
    out_file = tmp_path / "out.json"
    init = []
    if warm:
        warm_file = tmp_path / "warm.json"
        warm_file.write_text(json.dumps({"body": body, "homothets": warm}))
        init = ["--init", str(warm_file)]
    code, out, err = run(capsys, "--mode", flag, "--seed", "9", "search",
                         str(body_file), "--iters", "10", "--out",
                         str(out_file), *init)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["seed: 9", "mode: %s  eps: 1e-09" % route]
    ratios = [h["ratio"] for h in json.loads(out_file.read_text())["homothets"]]
    assert len(ratios) > 1 and all((type(r) is float) == (route == "float") for r in ratios[1:])


def test_search_internal_error_exit_2(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("search produced an invalid arrangement")
    monkeypatch.setattr("minkarr.cli.search_arrangement", broken)
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body_to_json(linf_ball(2))))
    code, _, err = run(capsys, "search", str(body_file), "--iters", "5")
    assert code == 2
    assert err == ("internal error: AssertionError: "
                   "search produced an invalid arrangement\n")
    assert "Traceback" not in err


def test_kdist_grid_spectrum_chain(tmp_path, capsys):
    pts_file = tmp_path / "grid.json"
    code, out, _ = run(capsys, "kdist", "grid", "--d", "2", "--k", "3",
                       "--out", str(pts_file))
    assert code == 0
    # the grid reads no input and is exact: the banner says so
    assert out == ("seed: 0\nmode: exact  eps: 1e-09\n"
                   "grid {0..3}^2: 16 points\n"
                   "point set written to %s\n" % pts_file)

    code, out, _ = run(capsys, "kdist", "spectrum", str(pts_file))
    assert code == 0
    assert "distances: 3" in out

    chain_file = tmp_path / "chain.json"
    code, out, _ = run(capsys, "kdist", "chain", str(pts_file),
                       "--k", "3", "--out", str(chain_file))
    assert code == 0
    assert "chain verification: PASS" in out
    blob = json.loads(chain_file.read_text())
    assert blob["verified"] is True


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(pointset_to_json(grid_set(2, 3))))
    return str(path)


# the square of half-width 2 as a body file: the max-norm distances halved
SQUARE2 = {"dim": 2, "type": "hpoly",
           "facets": [{"normal": n, "offset": 2}
                      for n in ([1, 0], [-1, 0], [0, 1], [0, -1])]}


@pytest.mark.parametrize("flags,k,route,spectrum_out,chain_out,chain_blob", [
    (["--norm", "l1"], "6", "exact",
     "distances: 6\n  1  x24\n  2  x34\n  3  x32\n  4  x20\n  5  x8\n"
     "  6  x2\n",
     "chain length 2 of target 2 (guaranteed: True)\nlambdas: [3]\n",
     {"indices": [0, 3], "lambdas": [3],
      "points": [[0, 0], [0, 3]], "target": 2}),
    (["--norm", "l2"], "9", "float",
     "distances: 9\n  1.0  x24\n  1.4142135623730951  x18\n  2.0  x16\n"
     "  2.23606797749979  x24\n  2.8284271247461903  x8\n  3.0  x8\n"
     "  3.1622776601683795  x12\n  3.605551275463989  x8\n"
     "  4.242640687119285  x2\n",
     "chain length 2 of target 2 (guaranteed: True)\nlambdas: [1.0]\n",
     {"indices": [0, 1], "lambdas": [1.0],
      "points": [[0, 0], [0, 1]], "target": 2}),
    (["--body", "{square2}"], "3", "exact",
     "distances: 3\n  1/2  x42\n  1  x48\n  3/2  x30\n",
     "chain length 3 of target 3 (guaranteed: True)\n"
     "lambdas: ['3/2', '3/2']\n",
     {"indices": [0, 3, 12], "lambdas": ["3/2", "3/2"],
      "points": [[0, 0], [0, 3], [3, 0]], "target": 3}),
], ids=["norm-l1", "norm-l2", "body-file"])
def test_kdist_body_choice(flags, k, route, spectrum_out, chain_out,
                           chain_blob, grid_file, tmp_path, capsys):
    square2 = tmp_path / "square2.json"
    square2.write_text(json.dumps(SQUARE2))
    flags = [f.format(square2=square2) for f in flags]
    banner = "seed: 0\nmode: %s  eps: 1e-09\n" % route
    assert run(capsys, "kdist", "spectrum", grid_file, *flags) == (
        0, banner + spectrum_out, "")
    chain_file = tmp_path / "chain.json"
    assert run(capsys, "kdist", "chain", grid_file, "--k", k,
               "--out", str(chain_file), *flags) == (
        0, banner + chain_out
        + "chain verification: PASS\nchain written to %s\n" % chain_file, "")
    blob = dict(chain_blob, guaranteed=True, verified=True)
    assert chain_file.read_text() == json.dumps(blob, sort_keys=True,
                                                indent=2) + "\n"


@pytest.mark.parametrize("mode,norm,points,route,spectrum_out", [
    ("float", "linf", [[0, 0], ["1/3", 0], [1, 1]], "exact",
     ["distances: 2", "  1/3  x1", "  1  x2"]),
    ("exact", "linf", [[0, 0], [0.5, 0], [1, 1]], "float",
     ["distances: 2", "  0.5  x1", "  1.0  x2"]),
    ("exact", "l2", [[0, 0], ["1/3", 0], [1, 1]], "float",
     ["distances: 3", "  0.3333333333333333  x1",
      "  1.2018504251546631  x1", "  1.4142135623730951  x1"]),
], ids=["exact-under-float", "float-point", "ball"])
def test_kdist_banner_names_the_route(mode, norm, points, route,
                                      spectrum_out, tmp_path, capsys):
    # spectrum and chain take their route from the input whatever --mode
    # says: exact on an exact body with exact points, float otherwise
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"dim": 2, "points": points}))
    banner = ["seed: 4", "mode: %s  eps: 1e-09" % route]
    code, out, err = run(capsys, "--mode", mode, "--seed", "4", "kdist",
                         "spectrum", str(path), "--norm", norm)
    assert (code, out.splitlines(), err) == (0, banner + spectrum_out, "")
    code, out, err = run(capsys, "--mode", mode, "--seed", "4", "kdist",
                         "chain", str(path), "--k", "3", "--norm", norm)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == banner
    assert out.splitlines()[-1] == "chain verification: PASS"


def test_kdist_chain_out_takes_one_table_of_the_chain_points(
        grid_file, tmp_path, capsys, monkeypatch):
    sizes = []
    table = kdistance.distance_table

    def counted(body, points):
        sizes.append(len(points))
        return table(body, points)
    monkeypatch.setattr(kdistance, "distance_table", counted)
    code, out, _ = run(capsys, "kdist", "chain", grid_file, "--k", "3",
                       "--out", str(tmp_path / "chain.json"))
    assert code == 0 and "chain length 3 of target 3" in out
    # the whole set for the spectrum and the rounds, then the chain once
    assert sizes == [16, 3]


def test_kdist_spectrum_two_points(tmp_path, capsys):
    pts_file = tmp_path / "two.json"
    pts_file.write_text(json.dumps({"dim": 2, "points": [[0, 0], [2, 1]]}))
    code, out, _ = run(capsys, "kdist", "spectrum", str(pts_file))
    assert code == 0
    assert "distances: 1" in out


def test_kdist_spectrum_one_point_is_an_input_error(tmp_path, capsys):
    pts_file = tmp_path / "one.json"
    pts_file.write_text(json.dumps({"dim": 2, "points": [[0, 0]]}))
    code, out, err = run(capsys, "kdist", "spectrum", str(pts_file))
    assert code == 2
    assert err == "input error: spectra need at least two points\n"
    assert out == ""


@pytest.mark.parametrize("points", [[], [[0, 0]]], ids=["empty", "one"])
def test_kdist_chain_without_a_pair_is_an_input_error(points, tmp_path,
                                                      capsys):
    pts_file = tmp_path / "pts.json"
    pts_file.write_text(json.dumps({"dim": 2, "points": points}))
    code, out, err = run(capsys, "kdist", "chain", str(pts_file), "--k", "3")
    assert code == 2
    assert err == "input error: spectra need at least two points\n"
    assert out == ""


def test_kdist_chain_target_zero_is_an_input_error(tmp_path, capsys):
    pts_file = tmp_path / "pts.json"
    pts_file.write_text(json.dumps({"dim": 2, "points": [[0, 0], [1, 0]]}))
    code, out, err = run(capsys, "kdist", "chain", str(pts_file), "--k", "1",
                         "--target", "0")
    assert code == 2
    assert err == "input error: target must be positive\n"
    assert out == ""


def test_lift_on_a_4d_vpoly_takes_a_facet_frame(tmp_path, capsys):
    # the 4-D cross-polytope as a vertex list: its facets are the vertices
    # of the polar, and the frame's plane is the least active facet
    vertices = [[s if k == i else 0 for k in range(4)]
                for i in range(4) for s in (1, -1)]
    path = tmp_path / "cross4.json"
    path.write_text(json.dumps({
        "body": {"dim": 4, "type": "vpoly", "vertices": vertices},
        "homothets": [{"center": [0, 0, 0, 0], "ratio": 1},
                      {"center": [1, 0, 0, 0], "ratio": 1}]}))
    code, out, err = run(capsys, "lift", str(path), "--pair", "0", "1")
    assert code == 0, err
    assert "slab containment: PASS" in out
    assert err == ""
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "lifted-packing-certificate: SKIP" in out


def test_float_mode_flag(cube_file, capsys):
    code, out, _ = run(capsys, "--mode", "float", "verify", cube_file)
    assert code == 0
    assert "mode: float" in out
    assert "eps: 1e-09" in out


def test_parser_state_does_not_leak_between_calls(cube_file, capsys):
    # one parser serves every in-process call; each call's flags and
    # defaults are its own
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "--mode", "float", "verify", cube_file)
    assert code == 0 and "mode: float  eps: 1e-09" in out
    code, out, _ = run(capsys, "verify", cube_file)
    assert code == 0 and "mode: exact  eps: 1e-09" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", cube_file, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "--seed", "3", "verify", cube_file)
    assert code == 0
    assert "seed: 3" in out and "mode: exact  eps: 1e-09" in out
    assert "verdict: PASS" in out


@pytest.mark.parametrize("body", [
    {"dim": 2, "type": "hpoly", "facets": [{"offset": 1}]},
    {"dim": 2, "type": "hpoly", "facets": ["x"]},
    {"dim": 2, "type": "vpoly", "vertices": 5},
], ids=["facet-without-normal", "facet-not-an-object", "vertices-not-a-list"])
@pytest.mark.parametrize("command", ["search", "spectrum", "chain"])
def test_malformed_body_entries_are_input_errors(body, command, tmp_path,
                                                 capsys):
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body))
    pts_file = tmp_path / "pts.json"
    pts_file.write_text(json.dumps({"dim": 2, "points": [[0, 0], [1, 0]]}))
    argv = {"search": ["search", str(body_file), "--iters", "5"],
            "spectrum": ["kdist", "spectrum", str(pts_file),
                         "--body", str(body_file)],
            "chain": ["kdist", "chain", str(pts_file), "--k", "2",
                      "--body", str(body_file)]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error: malformed "), err
    assert err.count("\n") == 1 and "internal error" not in err
    assert out == ""


@pytest.mark.parametrize("argv,payload,kind", [
    (["verify"], {"body": BALL_JSON, "homothets": [
        {"center": "10", "ratio": 1}, {"center": [1, 0], "ratio": 1}]}, "str"),
    (["verify"], {"body": {"dim": 2, "type": "hpoly", "facets": [
        {"normal": "10"}, {"normal": [-1, 0]}, {"normal": [0, 1]},
        {"normal": [0, -1]}]}, "homothets": [{"center": [0, 0], "ratio": 1}]},
     "str"),
    (["verify"], {"body": {"dim": 2, "type": "vpoly", "vertices": [
        {"1": 0, "0": 1}, [-1, 0], [0, 1], [0, -1]]},
        "homothets": [{"center": [0, 0], "ratio": 1}]}, "dict"),
    (["kdist", "spectrum"], {"dim": 1, "points": "012"}, "str"),
], ids=["center", "facet-normal", "vertex", "point"])
def test_coordinates_must_be_json_lists(argv, payload, kind, tmp_path,
                                        capsys):
    # a string was read as one coordinate per character and an object as
    # its keys: verify passed "center": "10" and the spectrum of
    # "points": "012" had two distances
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "input error: coordinates must be a JSON list, not %s\n" \
        % kind


@pytest.mark.parametrize("argv,payload,shown", [
    (["verify"], {"body": SQUARE_JSON, "homothets": [
        {"center": [0, 0], "ratio": math.nan}, {"center": [1, 0], "ratio": 1}]},
     "nan"),
    (["lift", "--pair", "0", "1"], {"body": SQUARE_JSON, "homothets": [
        {"center": [0, 0], "ratio": math.nan}, {"center": [1, 0], "ratio": 1}]},
     "nan"),
    (["verify"], {"body": SQUARE_JSON, "homothets": [
        {"center": [0, 0], "ratio": 1}, {"center": [math.inf, 0], "ratio": 1}]},
     "inf"),
    (["kdist", "spectrum"], {"dim": 2,
                             "points": [[0, 0], [1, 0], [math.nan, 0]]},
     "nan"),
    (["kdist", "spectrum"], {"dim": 2,
                             "points": [[0, 0], [1, 0], [-math.inf, 0]]},
     "-inf"),
], ids=["verify-nan", "lift-nan", "verify-inf", "spectrum-nan",
        "spectrum-inf"])
def test_non_finite_json_numbers_are_input_errors(argv, payload, shown,
                                                  tmp_path, capsys):
    # json reads the literals NaN and Infinity; they once gave a FAIL of
    # pairwise-intersecting, a width ratio nan, and distances 0 and inf
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "input error: scalar %s is not finite\n" % shown


@pytest.mark.parametrize("dim", [2.5, "2", True])
@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_dim_must_be_a_json_integer(dim, command, tmp_path, capsys):
    # int(dim) once read 2.5 and "2" as 2 and true as 1, and verify passed
    line = [[0] * (1 if dim is True else 2)]
    unit = {"dim": dim, "type": "ball"}
    payload = {"verify": {"body": unit, "homothets": [
        {"center": line[0], "ratio": 1}]},
        "spectrum": {"dim": dim, "points": line + [[1] + line[0][1:]]}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload[command]))
    argv = {"verify": ["verify"], "spectrum": ["kdist", "spectrum"]}[command]
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "input error: 'dim' must be an integer, got %r\n" % dim


@pytest.mark.parametrize("warm,message", [
    ({"body": body_to_json(linf_ball(3)),
      "homothets": [{"center": [0, 0, 0], "ratio": 1}]},
     "homothet center dimension mismatch"),
    ({"body": SQUARE_JSON, "homothets": [{"center": [0, 0], "ratio": 1},
                                         {"center": [5, 0], "ratio": 1}]},
     "warm start is not a valid arrangement"),
], ids=["3d-warm-start", "non-intersecting"])
def test_warm_start_is_checked_while_reading_input(warm, message,
                                                   square_body_file,
                                                   tmp_path, capsys):
    # both once printed the banner and then an internal error
    path = tmp_path / "warm.json"
    path.write_text(json.dumps(warm))
    code, out, err = run(capsys, "search", square_body_file, "--iters", "5",
                         "--init", str(path))
    assert code == 2 and out == ""
    assert err == "input error: %s\n" % message


@pytest.mark.parametrize("far", [10 ** 200, 1e200], ids=["exact", "float"])
def test_ball_gauge_beyond_float_squares(far, tmp_path, capsys):
    # the square of 10**200 has no float (internal OverflowError) and that
    # of 1e200 is inf (a distance inf, and a false FAIL of a touching pair)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"body": BALL_JSON, "homothets": [
        {"center": [0, 0], "ratio": 1}, {"center": [far, 0], "ratio": far}]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == ""
    assert "pairwise-intersecting: PASS" in out and "verdict: PASS" in out
    code, out, err = run(capsys, "lift", str(path), "--pair", "0", "1")
    assert code == 0 and "slab containment: PASS" in out
    path.write_text(json.dumps({"dim": 2, "points": [[0, 0], [far, 0]]}))
    code, out, err = run(capsys, "kdist", "spectrum", str(path),
                         "--norm", "l2")
    # the ball's distances are floats, exact points or not
    assert code == 0 and out == "seed: 0\nmode: float  eps: 1e-09\n" \
        "distances: 1\n  1e+200  x1\n"


def test_points_of_another_dimension_than_the_body(square_body_file,
                                                   tmp_path, capsys):
    # the integer table reads the rows without a gauge of its own, so the
    # table checks the dimension itself
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"dim": 3, "points": [[0, 0, 0], [1, 0, 0]]}))
    code, out, err = run(capsys, "kdist", "spectrum", str(path),
                         "--body", square_body_file)
    assert code == 2 and out == ""
    assert err == "input error: dimension mismatch: body is 2-dimensional, " \
        "vector is 3-dimensional\n"


def json_bytes(obj) -> bytes:
    """What ``cli._dump_json`` must write: json's own indent-2, sorted-key
    text and a newline."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def dumped(obj, path) -> bytes:
    cli._dump_json(str(path), obj)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_dump_json_bytes_on_every_golden(name, tmp_path):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        obj = json.load(fh)
    assert dumped(obj, tmp_path / name) == json_bytes(obj)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_dump_json_bytes_on_corpus_certificates(mode, tmp_path, capsys,
                                                monkeypatch):
    # seeded Minkowski families (certified) and intersecting ones (most fail
    # a predicate, with no certificate) over the corpus bodies
    payloads = []
    dump = cli._dump_json
    monkeypatch.setattr(cli, "_dump_json",
                        lambda path, obj: payloads.append(obj)
                        or dump(path, obj))
    rng = random.Random(2929)
    path, cert = tmp_path / "arr.json", tmp_path / "cert.json"
    verdicts = set()
    for t in range(36):
        body = corpus_body(rng, t)
        arr = random_minkowski_arrangement(rng, body=body, full_lift=True) \
            if t % 2 else random_intersecting_arrangement(rng, body=body)
        path.write_text(json.dumps(arrangement_to_json(arr)))
        code = main(["--mode", mode, "verify", str(path),
                     "--certificate", str(cert)])
        verdicts.add((code, payloads[-1]["certificate"] is None))
        assert cert.read_bytes() == json_bytes(payloads[-1])
    capsys.readouterr()
    assert len(payloads) == 36 and {(0, False), (1, True)} <= verdicts


json_leaves = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f\"\\/", "caf\u00e9 \u2028",
                     "\ud800", "\U0001f600", "\t\n"]),
    st.floats(),
    st.sampled_from([-0.0, 1e-320, 1e300, math.nan, math.inf, -math.inf]),
    st.integers(),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.booleans(),
    st.none())
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)


@given(obj=json_values)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dump_json_bytes_on_json_values(obj, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "value.json"
    assert dumped(obj, path) == json_bytes(obj)


@pytest.mark.parametrize("obj", [[object()], {"a": {1, 2}}],
                         ids=["object", "set"])
def test_dump_json_raises_what_json_raises(obj, tmp_path):
    with pytest.raises(TypeError) as want:
        json_bytes(obj)
    with pytest.raises(TypeError) as got:
        dumped(obj, tmp_path / "bad.json")
    assert str(got.value) == str(want.value)
