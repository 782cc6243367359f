#!/usr/bin/env python3
"""minkarr benchmark: one closed-loop client in one process.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each run builds its workload's inputs from ``--seed`` (see workloads.py),
then calls the package in-process for ``--seconds``: every op starts when
the previous one ends, cycling over the inputs.  Every op's output is
checked.  Inputs a workload marks untimed (verify_float's near-degenerate
share, on which float mode still fails) run once before the timed loop and
are reported apart from the timed ops.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each op once untraced and once
traced (alternating which goes first), reports the per-layer metrics from
the traced calls, and the tracing overhead from the pair.  The last line
of standard output is one JSON object; a fuller record (environment, seed,
input digest, sample counts, failures by type) goes to ``bench/results/``.
``--smoke`` runs every workload on a few ops in both modes and checks that
the metric names match ``BENCHMARK.json``.

Op timings are rescaled to a reference host speed measured by a calibration
loop that runs before each op (see REF_PROBE_S); ``setup_s`` is rescaled
by the start of a bare interpreter (see REF_BARE_START_S).
``ops_per_s`` counts successful ops (search iterations for ``search``) per
second of time inside the package's calls, and the latency percentiles are
over successful ops.

The package is imported from ``src/`` of the checkout and nowhere else; the
run exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 12

# On a shared 2-vCPU x86 virtual machine (Python 3.11) the host's speed
# changed by up to ~1.8x, for moments and for seconds at a time: one fixed
# pure-Python loop took 0.51 s and 0.95 s minutes apart, which swamps
# differences between commits.  So a fixed calibration loop that does not
# touch the package is timed right before every op, and the op's time is
# multiplied by REF_PROBE_S / (probe time): reported op times are "at the
# speed where the probe takes REF_PROBE_S", about its time on an idle core
# of that machine.  Recorded op/probe pairs showed that the freshest probe
# tracks an op's speed best.  The record keeps the wall-clock figures too.
REF_PROBE_S = 0.002

# Process starts on that machine drifted the same way (median of 12 starts
# of ``import minkarr.cli`` from 0.10 s to 0.19 s within minutes), and the
# Fraction loop above did not track them.  The start of a bare interpreter
# (``-c pass``, same interpreter and environment) right before each timed
# start does: the ratio of the pair stayed within 10% over the same
# minutes.  So each set-up sample is multiplied by REF_BARE_START_S /
# (bare start time), about the bare start on an idle core; what is left is
# the cost of importing the package, relative to the interpreter's own.
REF_BARE_START_S = 0.045

# name -> unit; every *_ms per-layer value is self time per traced op
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = {
    "polytopes.hull_ms": "polytopes.hull",
    "polytopes.shrink_ms": "polytopes.shrink",
    "polytopes.disjoint_ms": "polytopes.disjoint",
    "polytopes.volume_ms": "polytopes.volume",
    "lp.simplex_ms": "lp.simplex",
    "lifting.lift_ms": "lifting.lift",
    "lifting.frame_ms": "lifting.frame",
    "lifting.shadow_ms": "lifting.shadow",
    "lifting.slab_pair_ms": "lifting.slab_pair",
    "lifting.verify_slab_ms": "lifting.verify_slab",
    "lifting.ratio_identity_ms": "lifting.ratio_identity",
    "linalg.nullspace_ms": "linalg.nullspace",
    "linalg.affine_coordinates_ms": "linalg.affine_coordinates",
    "bodies.gauge_ms": "bodies.gauge",
    "bodies.support_ms": "bodies.support",
    "arrangement.predicate_ms": "arrangement.predicate",
    "arrangement.search_self_ms": "arrangement.search",
    "packing.pipeline_self_ms": "packing.pipeline",
    "packing.family_self_ms": "packing.family",
    "packing.check_self_ms": "packing.check",
    "cli.parse_ms": "cli.parse",
    "cli.cert_json_ms": "cli.cert_json",
    "cli.self_ms": "cli.main",
    "trace.unattributed_ms": "op",
}
LAYER_CALLS = {
    "polytopes.hull_calls": "polytopes.hull",
    "polytopes.disjoint_calls": "polytopes.disjoint",
    "polytopes.volume_calls": "polytopes.volume",
    "lp.simplex_calls": "lp.simplex",
    "lifting.slab_pair_calls": "lifting.slab_pair",
    "linalg.nullspace_calls": "linalg.nullspace",
    "bodies.gauge_calls": "bodies.gauge",
    "bodies.support_calls": "bodies.support",
    "arrangement.predicate_calls": "arrangement.predicate",
}
LAYER_OTHER = {
    "polytopes.hull_vertices": "vertices",
    "polytopes.disjoint_true_ratio": "ratio",
    "scalars.cert_max_bits": "bits",
    "float.degenerate_fail_rate": "ratio",
    "search_best_size": "members",
    "trace.op_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {name: "ms/op" for name in LAYER_TIMES}
    units.update({name: "calls/op" for name in LAYER_CALLS})
    units.update(LAYER_OTHER)
    return units


def measure_setup(repeats: int, warm: bool = True) -> list:
    """(wall time of a fresh interpreter importing minkarr.cli, wall time of
    a bare interpreter start just before it) pairs; ``warm`` first makes one
    untimed start that leaves the bytecode cache written."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import minkarr.cli"]
    bare = [sys.executable, "-c", "pass"]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    pairs = []
    for _ in range(repeats):
        walls = []
        for argv in (bare, cmd):
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, cwd=ROOT, check=True)
            walls.append(time.perf_counter() - t0)
        pairs.append((walls[1], walls[0]))
    return pairs


def probe() -> float:
    """Seconds for one pass of a fixed loop of Fraction arithmetic."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 11 + 2) * (i % 5)
    return time.perf_counter() - t0


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git"] + list(args), cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment() -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha.strip() if sha else None,
            "git_dirty": bool(status.strip()) if status is not None else None}


class Loop:
    """Closed-loop driver: times each op, checks it, tallies outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []          # seconds, successful untraced ops
        self.busy = 0.0              # seconds in untraced ops
        self.raw_latencies = []      # the same, wall clock
        self.raw_busy = 0.0
        self.probes = []
        self.attempted = 0
        self.ok = 0
        self.failures = {}
        self.examples = {}

    def scale(self) -> float:
        """Factor from wall-clock time to reference-speed time, from a probe
        taken now."""
        self.probes.append(probe())
        return REF_PROBE_S / self.probes[-1]

    def execute(self, inp, tracer=None) -> float:
        """Run one op (traced when a tracer is given), then check it with
        the tracer's wrappers removed again.  Returns the op's time at the
        reference speed."""
        wl = self.workload
        error = None
        scale = self.scale()
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = wl.call(inp) if tracer is None \
                    else tracer.run_op(wl.call, inp, scale=scale)
            except Exception as exc:  # an op that raises is a counted failure
                error = exc
            raw = time.perf_counter() - t0
        elapsed = raw * scale
        if error is None:
            try:
                outcome = wl.check(inp, out)
            except Exception as exc:  # unreadable output is a wrong answer
                outcome = "wrong:check_raised_%s" % type(exc).__name__
        else:
            outcome = "error:%s" % type(error).__name__
            self.examples.setdefault(outcome, traceback.format_exception(
                type(error), error, error.__traceback__)[-3:])
        self.attempted += 1
        if outcome == "ok":
            self.ok += 1
        else:
            self.failures[outcome] = self.failures.get(outcome, 0) + 1
        if tracer is None:
            self.busy += elapsed
            self.raw_busy += raw
            if outcome == "ok":
                self.latencies.append(elapsed)
                self.raw_latencies.append(raw)
        return elapsed

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def correct(self) -> bool:
        return not any(k.startswith("wrong:") for k in self.failures)


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_repeats: int = SETUP_REPEATS,
        spans_path: str = None) -> dict:
    import spans
    import workloads

    # half the set-up samples before the timed loop and half after, so the
    # median does not hang on one moment of a host whose speed drifts
    setup_times = [] if trace else measure_setup((setup_repeats + 1) // 2)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        t_gen = time.perf_counter()
        wl = workloads.build(name, seed, scale, workdir)
        generated = time.perf_counter()
        digest = hashlib.sha256(json.dumps(
            wl.digest_data, sort_keys=True, default=str,
            separators=(",", ":")).encode()).hexdigest()
        # the untimed inputs run once, untraced, before the timed loop
        untimed = Loop(wl)
        for inp in wl.untimed_inputs:
            untimed.execute(inp)
        loop = Loop(wl)
        tracer = spans.Tracer() if trace else None
        traced_busy = untraced_busy = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while True:
            inp = wl.inputs[k % len(wl.inputs)]
            if tracer is None:
                loop.execute(inp)
            else:
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced:
                        traced_busy += loop.execute(inp, tracer)
                    else:
                        untraced_busy += loop.execute(inp)
            k += 1
            if time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - start
        if not trace:
            setup_times += measure_setup(setup_repeats // 2, warm=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    lat = sorted(loop.latencies)
    units = wl.units_per_op
    ok_untraced = len(lat)
    summary = wl.summary()
    end_to_end = {
        "setup_s": (statistics.median(
            [w * REF_BARE_START_S / b for w, b in setup_times])
            if setup_times else None, len(setup_times)),
        "ops_per_s": (ok_untraced * units / loop.busy if loop.busy else None,
                      k),
        "latency_p50_ms": (statistics.median(lat) * 1e3 if lat else None,
                           len(lat)),
        "latency_p90_ms": (percentile(lat, 90) * 1e3 if lat else None,
                           len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    raw = sorted(loop.raw_latencies)
    wall_clock = {
        "setup_s": statistics.median([w for w, _b in setup_times])
        if setup_times else None,
        "bare_start_s": statistics.median([b for _w, b in setup_times])
        if setup_times else None,
        "ops_per_s": ok_untraced * units / loop.raw_busy
        if loop.raw_busy else None,
        "latency_p50_ms": statistics.median(raw) * 1e3 if raw else None,
        "latency_p90_ms": percentile(raw, 90) * 1e3 if raw else None,
        "probe_median_ms": statistics.median(loop.probes) * 1e3,
        "probe_min_ms": min(loop.probes) * 1e3,
        "probes": len(loop.probes),
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "environment": environment(),
        "inputs": len(wl.inputs), "inputs_sha256": digest,
        "abandoned_generator_bodies": wl.abandoned_bodies,
        "generate_s": generated - t_gen,
        "wall_s": wall, "ops": k, "attempted": loop.attempted,
        "failed": loop.failed, "correct": loop.correct and untimed.correct,
        "fail_rate": loop.failed / loop.attempted,
        "failures_by_type": dict(sorted(loop.failures.items())),
        "failure_examples": loop.examples,
        "untimed": {
            "attempted": untimed.attempted, "failed": untimed.failed,
            "fail_rate": untimed.failed / max(untimed.attempted, 1),
            "failures_by_type": dict(sorted(untimed.failures.items())),
            "failure_examples": untimed.examples},
        "search_best_size": summary.get("search_best_size"),
        "search_inputs_done": summary.get("search_inputs_done", 0),
        "setup_samples_s": [w for w, _b in setup_times],
        "setup_bare_samples_s": [b for _w, b in setup_times],
        "wall_clock": wall_clock,
        "end_to_end": {m: {"value": v, "unit": END_TO_END[m], "samples": n}
                       for m, (v, n) in end_to_end.items()},
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer, wl, summary,
                                            untraced_busy, traced_busy,
                                            record["untimed"]["fail_rate"])
        record["traced_ops"] = tracer.ops
        record["spans_kept"] = len(tracer.kept)
        record["missing_sites"] = tracer.missing_sites
        if spans_path:
            tracer.write_spans(spans_path)
    return record


def layer_metrics(tracer, wl, summary, untraced_busy, traced_busy,
                  untimed_fail_rate) -> dict:
    units = per_layer_units()
    values = {m: tracer.self_ms_per_op(s) for m, s in LAYER_TIMES.items()}
    values.update({m: tracer.calls_per_op(s) for m, s in LAYER_CALLS.items()})
    hulls = tracer.calls.get("polytopes.hull", 0)
    disjoint = tracer.calls.get("polytopes.disjoint", 0)
    values["polytopes.hull_vertices"] = (
        tracer.observed["polytopes.hull_vertices"] / hulls if hulls else 0.0)
    values["polytopes.disjoint_true_ratio"] = (
        tracer.observed["polytopes.disjoint_true"] / disjoint
        if disjoint else 0.0)
    values["scalars.cert_max_bits"] = wl.cert_bits
    values["float.degenerate_fail_rate"] = untimed_fail_rate
    values["search_best_size"] = summary.get("search_best_size", 0.0)
    values["trace.op_ms"] = tracer.op_ns / 1e6 / max(tracer.ops, 1)
    # same ops, same count: the ratio of busy times is the ratio of rates
    values["trace.overhead_ratio"] = (untraced_busy / traced_busy
                                      if traced_busy else 0.0)
    return {m: {"value": values[m], "unit": units[m],
                "samples": tracer.ops} for m in units}


def final_line(record: dict) -> dict:
    section = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                        for m, v in section.items()}}


def report(record: dict) -> None:
    print("workload %s  seed %d  seconds %g  trace %d  inputs %d  sha256 %s"
          % (record["workload"], record["seed"], record["seconds"],
             record["trace"], record["inputs"], record["inputs_sha256"][:16]))
    rows = record["end_to_end"]
    if record["trace"]:
        rows = dict(record["per_layer"])
    print("%-30s %14s  %-9s %s" % ("metric", "value", "unit", "samples"))
    for m, v in rows.items():
        value = "n/a" if v["value"] is None else "%.6g" % v["value"]
        print("%-30s %14s  %-9s %d" % (m, value, v["unit"], v["samples"]))
    if record["trace"]:
        self_sum = sum(rows[m]["value"] for m in LAYER_TIMES)
        print("layer self times sum to %.4f ms of %.4f ms per traced op"
              % (self_sum, rows["trace.op_ms"]["value"]))
    else:
        best = record["search_best_size"]
        print("%-30s %14s  %-9s %d" % (
            "search_best_size", "n/a" if best is None else "%.6g" % best,
            "members", record["search_inputs_done"]))
    print("%-30s %14.6g  %-9s %d" % ("fail_rate", record["fail_rate"],
                                     "ratio", record["attempted"]))
    wc = record["wall_clock"]
    if wc["latency_p50_ms"] is not None:
        print("times above are at reference speed (probe %.3g ms); wall "
              "clock: ops_per_s %.6g  p50 %.6g ms  p90 %.6g ms  probe "
              "median %.4g ms over %d" % (
                  REF_PROBE_S * 1e3, wc["ops_per_s"], wc["latency_p50_ms"],
                  wc["latency_p90_ms"], wc["probe_median_ms"], wc["probes"]))
    if wc["setup_s"] is not None:
        print("setup_s is at reference speed (bare start %.3g ms); wall "
              "clock: setup_s %.6g  bare start %.6g s" % (
                  REF_BARE_START_S * 1e3, wc["setup_s"], wc["bare_start_s"]))
    print("correct %s  (%d failed of %d attempted)"
          % (record["correct"], record["failed"], record["attempted"]))
    for outcome, count in record["failures_by_type"].items():
        print("  failure %-40s %d" % (outcome, count))
    untimed = record["untimed"]
    if untimed["attempted"]:
        print("untimed near-degenerate inputs: %d failed of %d "
              "(float.degenerate_fail_rate %.6g)"
              % (untimed["failed"], untimed["attempted"],
                 untimed["fail_rate"]))
        for outcome, count in untimed["failures_by_type"].items():
            print("  untimed failure %-32s %d" % (outcome, count))


def benchmark_names() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def smoke() -> int:
    """Every workload, a few ops, both modes; the printed names and units
    must be exactly the ones BENCHMARK.json declares."""
    spec = benchmark_names()
    problems = []
    for name in spec["workloads"]:
        for trace in (False, True):
            record = run(name, seed=0, seconds=0.2, trace=trace, scale=0.05,
                         setup_repeats=1)
            line = final_line(record)
            want = spec["per_layer" if trace else "end_to_end"]
            got = {m: v["unit"] for m, v in line["metrics"].items()}
            status = "ok"
            if got != want:
                status = "names differ: %s" % sorted(
                    set(got.items()) ^ set(want.items()))
            elif not line["correct"] or any(
                    not isinstance(v["value"], (int, float))
                    for v in line["metrics"].values()):
                status = "incorrect or missing values"
            print("smoke %-13s trace %d  ops %-4d %s"
                  % (name, trace, record["ops"], status))
            if status != "ok":
                problems.append((name, trace, status))
    print(json.dumps({"smoke": "pass" if not problems else "fail",
                      "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the "
                             "metric names against BENCHMARK.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minkarr", "__init__.py")):
        print("error: no package at %s; run from the root of a checkout"
              % os.path.join(SRC, "minkarr"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s"
                     % ", ".join(workloads.WORKLOADS))
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spans_path=stem + "-spans.jsonl")
    line = final_line(record)
    if any(v["value"] is None for v in line["metrics"].values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
