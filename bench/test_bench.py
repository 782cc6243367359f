"""Tests of the benchmark itself: span bookkeeping and the smoke mode.

Run from the root of the repository with ``python -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_the_op():
    tracer = spans.Tracer()
    leaf = tracer._wrap("leaf", lambda: _busy(0.002), None)

    def middle():
        _busy(0.001)
        leaf()
        leaf()
    middle = tracer._wrap("middle", middle, None)
    for _ in range(3):
        tracer.run_op(lambda: (middle(), _busy(0.001)))
    assert tracer.ops == 3
    assert tracer.calls["leaf"] == 6 and tracer.calls["middle"] == 3
    assert sum(tracer.self_ns.values()) == tracer.op_ns
    assert tracer.self_ns["leaf"] >= 6 * 2_000_000
    assert tracer.self_ns["middle"] < tracer.self_ns["leaf"]
    kept = [s for s in tracer.kept if s["op"] == 1]
    ids = {s["name"]: s["id"] for s in kept}
    parents = {s["name"]: s["parent"] for s in kept}
    assert parents[spans.ROOT] == -1
    assert parents["middle"] == ids[spans.ROOT]
    assert parents["leaf"] == ids["middle"]


def test_spans_of_a_failing_op_are_closed():
    tracer = spans.Tracer()

    def boom():
        raise IndexError("x")
    boom = tracer._wrap("boom", boom, None)
    try:
        tracer.run_op(boom)
    except IndexError:
        pass
    assert tracer.calls["boom"] == 1
    assert sum(tracer.self_ns.values()) == tracer.op_ns
    assert tracer._stack == [-1]


def test_install_restores_every_site():
    import minkarr.bodies
    import minkarr.packing
    before = (minkarr.packing.hull, minkarr.bodies.HPolytopeBody.gauge)
    tracer = spans.Tracer()
    with tracer.installed():
        assert minkarr.packing.hull is not before[0]
        assert minkarr.bodies.HPolytopeBody.gauge is not before[1]
    assert (minkarr.packing.hull, minkarr.bodies.HPolytopeBody.gauge) == before


def test_smoke_mode_names_match_benchmark_json():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "pass"


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "pairs", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
