"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Every workload builds its inputs from the run's seed with the package's own
instance generators, before any timing starts; the timed op then only
receives those inputs.  ``call`` is the timed region.  ``check`` looks at
its output afterwards and returns ``OK`` or the reason the op failed.

Outcome classes, shared by all workloads:

* ``OK`` -- the program answered and the answer checked out;
* ``error:<type>`` -- the op raised (the float-mode reproducers show up as
  ``IndexError``, ``UnboundedLP``, ``AssertionError``, ...);
* ``exit:<code>`` / ``false_fail:<stage>`` -- the CLI refused a valid input;
* ``wrong:<what>`` -- the program answered and an independent check of the
  answer failed.

All four count as failed ops.  Only ``wrong:`` outcomes make a run incorrect:
every input is valid by construction, so a refusal or crash is a failure to
decide, while a PASS whose certificate does not check out is a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import Dict, List

from minkarr import arrangement, cli, lifting
from minkarr.arrangement import (SearchConfig, arrangement_to_json,
                                 cube_arrangement)
from minkarr.bodies import l1_ball, linf_ball
from minkarr.instances import (corpus_body, random_intersecting_arrangement,
                               random_minkowski_arrangement,
                               random_symmetric_hexagon)

OK = "ok"

# randint draws one generator call may use before its body is given up
DRAW_BUDGET = 50_000


class DrawBudgetExceeded(Exception):
    """A generator call used more than its draw budget."""


class BudgetRandom(random.Random):
    """Seeded random source that can cap the draws of one generator call.

    ``random_minkowski_arrangement`` retries until it finds a feasible
    family; for some thin random hexagons it settles on a center box where
    none exists and never returns.  Counting draws gives up on such a body
    after the same number of draws on every machine, so inputs stay a pure
    function of the seed.
    """

    budget = None

    def randint(self, a, b):
        if self.budget is not None:
            self.budget -= 1
            if self.budget < 0:
                raise DrawBudgetExceeded()
        return super().randint(a, b)


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length among the exact scalars
    of a JSON value ("p/q" strings and integers)."""
    if isinstance(obj, bool) or isinstance(obj, float) or obj is None:
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, str):
        if "/" not in obj:
            return 0
        try:
            value = Fraction(obj)
        except (ValueError, ZeroDivisionError):
            return 0
        return max(abs(value.numerator).bit_length(),
                   value.denominator.bit_length())
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((max_bits(v) for v in obj), default=0)
    return 0


class Workload:
    """Base: ``inputs`` (timed) and ``untimed_inputs`` (run once, before
    timing) are built once; ``digest_data`` is what identifies them;
    ``units_per_op`` scales ops_per_s (search counts iterations)."""

    name = ""
    units_per_op = 1

    def __init__(self, rng: random.Random, scale: float, workdir: str):
        self.rng = rng
        self.scale = scale
        self.workdir = workdir
        self.inputs: List[dict] = []
        self.untimed_inputs: List[dict] = []
        self.digest_data: List = []
        self.cert_bits = 0
        self.abandoned_bodies = 0

    def _count(self, full: int, floor: int = 3) -> int:
        return max(floor, int(round(full * self.scale)))

    def call(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> str:
        raise NotImplementedError

    def summary(self) -> Dict[str, float]:
        return {}


class _VerifyWorkload(Workload):
    """One op is an in-process ``minkarr verify FILE --certificate OUT``."""

    mode_args: List[str] = []

    def _add_file(self, obj: dict, kind: str, untimed: bool = False) -> None:
        path = os.path.join(self.workdir,
                            "in%04d.json" % len(self.digest_data))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        (self.untimed_inputs if untimed else self.inputs).append(
            {"path": path, "kind": kind})
        self.digest_data.append(obj)

    def _minkowski(self, t: int) -> dict:
        """Arrangement JSON of a seeded Minkowski arrangement with a
        full-dimensional lift on body kind t % 3 with n = 4 + (t // 3) % 3,
        so every nine consecutive inputs hold each (body, n) pair once."""
        while True:
            body = corpus_body(self.rng, t)
            self.rng.budget = DRAW_BUDGET
            try:
                arr = random_minkowski_arrangement(
                    self.rng, body=body, n=4 + (t // 3) % 3, full_lift=True)
            except DrawBudgetExceeded:
                self.abandoned_bodies += 1
                continue
            finally:
                self.rng.budget = None
            return arrangement_to_json(arr)

    def call(self, inp: dict):
        cert = os.path.join(self.workdir, "cert.json")
        if os.path.exists(cert):
            os.remove(cert)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(self.mode_args + ["verify", inp["path"],
                                              "--certificate", cert])
        return code, cert

    def _read_cert(self, code: int, cert_path: str):
        if not os.path.exists(cert_path):
            return None, "exit:%d" % code
        with open(cert_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        cert = payload.get("certificate")
        if cert is not None:
            self.cert_bits = max(self.cert_bits, max_bits(cert))
        if code != 0:
            stage = cert.get("failed_stage") if cert else None
            return None, ("false_fail:%s" % stage) if code == 1 \
                else "exit:%d" % code
        if cert is None:
            return None, "wrong:no_certificate"
        if not (payload["checks"]["minkowski"]
                and payload["checks"]["intersecting"]):
            return None, "wrong:predicates"
        if cert["verdict"] != "pass":
            return None, "wrong:verdict_%s" % cert["verdict"]
        return cert, OK


class VerifyExact(_VerifyWorkload):
    """cube_arrangement(2) plus 240 seeded Minkowski arrangements (n 4..6,
    linf / l1 / random hexagon bodies, lifted image full-dimensional),
    verified in exact rational mode.  A run reaches about as many ops as
    there are inputs, so each op is a distinct arrangement."""

    name = "verify_exact"

    def __init__(self, rng, scale, workdir):
        super().__init__(rng, scale, workdir)
        self._add_file(arrangement_to_json(cube_arrangement(2)), "cube")
        for t in range(self._count(240)):
            self._add_file(self._minkowski(t), "polytope")

    def check(self, inp, out) -> str:
        cert, outcome = self._read_cert(*out)
        if cert is None:
            return outcome
        for _i, _j, rho in cert["pair_ratios"]:
            if Fraction(rho) > 2:
                return "wrong:pair_ratio"
        n = cert["n"]
        adim = cert["affine_dim"]
        if inp["kind"] == "polytope" and adim != 3:
            return "wrong:affine_dim"
        hull_volume = Fraction(cert["hull_volume"])
        volume_sum = Fraction(cert["volume_sum"])
        # every copy is the hull shrunk by 1/(1+lam) = 1/3 in each of the
        # affine_dim directions
        if volume_sum != n * hull_volume / 3 ** adim:
            return "wrong:volume_sum"
        if volume_sum > hull_volume:
            return "wrong:volume_exceeds_hull"
        return OK


def _disc_hexagon(center, radius, angle, centre_ratio):
    """Discs of the given radius on the vertices of a regular hexagon of
    circumradius ``radius``, plus a disc of ``centre_ratio`` at its centre:
    every centre lies on or outside the other discs, opposite discs touch."""
    homothets = [{"center": [center[0], center[1]], "ratio": centre_ratio}]
    for k in range(6):
        phi = angle + k * math.pi / 3
        homothets.append({"center": [center[0] + radius * math.cos(phi),
                                     center[1] + radius * math.sin(phi)],
                          "ratio": radius})
    return {"body": {"dim": 2, "type": "ball"}, "homothets": homothets}


class VerifyFloat(_VerifyWorkload):
    """The same op under ``--mode float``.  Per block: five seeded polytope
    arrangements and one seeded (moved, scaled, rotated) disc hexagon as
    timed inputs, and two near-degenerate untimed inputs --
    cube_arrangement(2) with the centre ratio 1 - delta, then the unit disc
    hexagon with the centre ratio 1 - delta.  delta is log-uniform in
    [1e-12, 1e-3], stratified into equal decade slices so every seed samples
    the whole range evenly.  All inputs are valid, so the correct outcome is
    always exit 0 with PASS.

    Float mode crashes or answers a false FAIL on part of the near-degenerate
    inputs (at delta around 1e-9 to 1e-7), so they are not timed ops: each
    runs once per run before the timed loop, and their outcomes are
    reported apart (``float.degenerate_fail_rate`` and the failure types)."""

    name = "verify_float"
    mode_args = ["--mode", "float"]

    def __init__(self, rng, scale, workdir):
        super().__init__(rng, scale, workdir)
        blocks = self._count(24, floor=1)
        # one delta per equal slice of [-12, -3] in log10, slices visited
        # with a stride coprime to their count, so that any prefix of the
        # inputs spreads over the whole range
        stride = _coprime_stride(blocks)
        deltas = {kind: [10 ** (-12 + 9 * ((k * stride) % blocks
                                           + rng.random()) / blocks)
                         for k in range(blocks)]
                  for kind in ("cube", "ball")}
        t = 0
        for block in range(blocks):
            for _ in range(5):
                self._add_file(self._minkowski(t), "polytope")
                t += 1
            radius = rng.uniform(0.5, 2.0)
            self._add_file(_disc_hexagon(
                (rng.uniform(-3, 3), rng.uniform(-3, 3)), radius,
                rng.uniform(0, math.pi / 3), radius), "ball")
            cube = arrangement_to_json(cube_arrangement(2))
            cube["homothets"][4]["ratio"] = 1 - deltas["cube"][block]
            self._add_file(cube, "degenerate_cube", untimed=True)
            self._add_file(_disc_hexagon((0.0, 0.0), 1.0, 0.0,
                                         1 - deltas["ball"][block]),
                           "degenerate_ball", untimed=True)

    def check(self, inp, out) -> str:
        _cert, outcome = self._read_cert(*out)
        return outcome


def _coprime_stride(n: int) -> int:
    """A stride near n / golden ratio that visits every residue mod n."""
    stride = max(1, int(round(n * 0.618)))
    while math.gcd(stride, n) != 1:
        stride += 1
    return stride


class Pairs(Workload):
    """Seeded pairwise-intersecting rational families (n 3..5, three body
    kinds), one op per pair: lift, frame, shadow, then at the midpoint and
    four seeded common points the slab pair, the ratio identity and slab
    containment."""

    name = "pairs"
    common_points = 4

    def __init__(self, rng, scale, workdir):
        super().__init__(rng, scale, workdir)
        for t in range(self._count(240)):
            arr = random_intersecting_arrangement(
                rng, body=corpus_body(rng, t), n=3 + (t // 3) % 3)
            n = len(arr)
            for i in range(n):
                for j in range(i + 1, n):
                    xs = self._common_points(arr, i, j)
                    if xs:
                        self.inputs.append({"arr": arr, "i": i, "j": j,
                                            "xs": xs})
                        self.digest_data.append(
                            [arrangement_to_json(arr), i, j,
                             [str(x) for x in xs]])

    def _common_points(self, arr, i, j) -> List[Fraction]:
        """Midpoint plus seeded points of the shadow intersection; the
        measure-zero positions where the wedge degenerates (infinite width
        ratio) are redrawn, as in the acceptance suite's identity corpus."""
        sd0 = lifting.shadow(arr, lifting.build_frame(arr, i, j))
        lam_i, lam_j = arr.members[i].ratio, arr.members[j].ratio
        span = sd0.inter_hi - sd0.inter_lo

        def finite(x):
            sd = lifting.shadow_with_x(sd0, x)
            return not isinstance(lifting.ratio(lam_i, lam_j, sd.u_i, sd.u_j),
                                  float)
        xs = [sd0.x_coord] if finite(sd0.x_coord) else []
        if span == 0:
            return xs
        for _ in range(self.common_points):
            denom = 16
            while True:
                x = sd0.inter_lo + span * Fraction(
                    self.rng.randint(0, denom), denom)
                if finite(x):
                    xs.append(x)
                    break
                denom += 1
        return xs

    def call(self, inp):
        arr, i, j = inp["arr"], inp["i"], inp["j"]
        lifted = lifting.lift(arr)
        frame = lifting.build_frame(arr, i, j)
        sd0 = lifting.shadow(arr, frame)
        lam_i, lam_j = arr.members[i].ratio, arr.members[j].ratio
        results = []
        for x in inp["xs"]:
            sd = lifting.shadow_with_x(sd0, x)
            rho = lifting.ratio(lam_i, lam_j, sd.u_i, sd.u_j)
            slab = lifting.slab_pair(arr, frame, sd)
            identity = lifting.verify_ratio_identity(
                slab, lifted.points[i], lifted.points[j], rho)
            contained, _offender = lifting.verify_slab(lifted, slab)
            results.append((identity, contained, slab))
        return results

    def check(self, inp, out) -> str:
        for identity, contained, slab in out:
            self.cert_bits = max(self.cert_bits, max_bits(
                [str(c) for c in slab.normal]
                + [str(slab.c_k_ij), str(slab.c_k_ji),
                   str(slab.c_g_ij), str(slab.c_g_ji)]))
            if identity is not True:
                return "wrong:ratio_identity"
            if contained is not True:
                return "wrong:slab_containment"
        return OK


class Search(Workload):
    """Cold-start ``search_arrangement`` at a fixed iteration count, for
    forty search seeds, each on linf_ball(2), l1_ball(2) and a fresh seeded
    hexagon (the hexagon's shape moves search cost a lot, so one hexagon per
    run would make runs on different seeds hard to compare); one op is one
    search run."""

    name = "search"
    iterations = 25
    units_per_op = iterations

    def __init__(self, rng, scale, workdir):
        super().__init__(rng, scale, workdir)
        for _ in range(self._count(40, 1)):
            seed = rng.randrange(2 ** 31)
            bodies = [("linf", linf_ball(2)), ("l1", l1_ball(2)),
                      ("hexagon", random_symmetric_hexagon(rng))]
            for label, body in bodies:
                self.inputs.append({"key": "%s/%d" % (label, seed),
                                    "body": body, "seed": seed})
                self.digest_data.append([body.to_json(), seed,
                                         self.iterations])
        self.first_json: Dict[str, str] = {}
        self.best_size: Dict[str, int] = {}

    def call(self, inp):
        cfg = SearchConfig(seed=inp["seed"], iterations=self.iterations)
        return arrangement.search_arrangement(inp["body"], 2, cfg)

    def check(self, inp, out) -> str:
        text = json.dumps(arrangement_to_json(out), sort_keys=True)
        self.cert_bits = max(self.cert_bits, max_bits(json.loads(text)))
        if arrangement.find_minkowski_violation(out) is not None \
                or arrangement.find_intersection_violation(out) is not None:
            return "wrong:predicates"
        first = self.first_json.setdefault(inp["key"], text)
        if first != text:
            return "wrong:not_deterministic"
        self.best_size[inp["key"]] = len(out)
        return OK

    def summary(self) -> Dict[str, float]:
        if not self.best_size:
            return {}
        sizes = list(self.best_size.values())
        return {"search_best_size": sum(sizes) / len(sizes),
                "search_inputs_done": len(sizes)}


WORKLOADS = {w.name: w for w in (VerifyExact, VerifyFloat, Pairs, Search)}


def build(name: str, seed: int, scale: float, workdir: str) -> Workload:
    rng = BudgetRandom("%s/%d" % (name, seed))
    return WORKLOADS[name](rng, scale, workdir)

