"""Outside-in span tracing for the benchmark's traced runs.

The program itself is not instrumented.  ``Tracer.installed()`` replaces
layer functions at the sites where the package imports or calls them (for
example ``minkarr.packing.hull`` or ``HPolytopeBody.gauge``) with wrappers
that record one span per call: name, start, end and parent span.  Spans are
kept in memory per op; when the op ends they are folded into per-layer totals
(calls and self time, where a span's self time is its duration minus the
durations of its direct children; totals are rescaled to the reference host
speed like every timing of the benchmark) and a bounded sample of the raw
spans is kept for writing out at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "op"
KEEP_SPANS = 20000          # spans written out per run; later ops only fold


def _hull_vertices(result) -> Tuple[str, float]:
    return "polytopes.hull_vertices", len(getattr(result, "vertices", ()))


def _disjoint_true(result) -> Tuple[str, float]:
    return "polytopes.disjoint_true", 1.0 if result else 0.0


# (module, attribute or Class.method, span name, observer of the result)
SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("minkarr.cli", "main", "cli.main", None),
    ("minkarr.cli", "build_parser", "cli.parse", None),
    ("minkarr.cli", "_load_json", "cli.parse", None),
    ("minkarr.cli", "arrangement_from_json", "cli.parse", None),
    ("minkarr.cli", "certificate_to_json", "cli.cert_json", None),
    ("minkarr.cli", "_dump_json", "cli.cert_json", None),
    ("minkarr.cli", "lifted_packing_pipeline", "packing.pipeline", None),
    ("minkarr.cli", "find_minkowski_violation", "arrangement.predicate", None),
    ("minkarr.cli", "find_intersection_violation", "arrangement.predicate",
     None),
    ("minkarr.packing", "find_minkowski_violation", "arrangement.predicate",
     None),
    ("minkarr.packing", "find_intersection_violation",
     "arrangement.predicate", None),
    ("minkarr.arrangement", "find_minkowski_violation",
     "arrangement.predicate", None),
    ("minkarr.arrangement", "find_intersection_violation",
     "arrangement.predicate", None),
    ("minkarr.arrangement", "search_arrangement", "arrangement.search", None),
    ("minkarr.packing", "family_from_arrangement", "packing.family", None),
    ("minkarr.packing", "slab_packing_check", "packing.check", None),
    ("minkarr.packing", "lift", "lifting.lift", None),
    ("minkarr.lifting", "lift", "lifting.lift", None),
    ("minkarr.packing", "build_frame", "lifting.frame", None),
    ("minkarr.lifting", "build_frame", "lifting.frame", None),
    ("minkarr.packing", "shadow", "lifting.shadow", None),
    ("minkarr.lifting", "shadow", "lifting.shadow", None),
    ("minkarr.lifting", "shadow_with_x", "lifting.shadow", None),
    ("minkarr.packing", "slab_pair", "lifting.slab_pair", None),
    ("minkarr.lifting", "slab_pair", "lifting.slab_pair", None),
    ("minkarr.packing", "verify_slab", "lifting.verify_slab", None),
    ("minkarr.lifting", "verify_slab", "lifting.verify_slab", None),
    ("minkarr.lifting", "verify_ratio_identity", "lifting.ratio_identity",
     None),
    ("minkarr.lifting", "nullspace", "linalg.nullspace", None),
    ("minkarr.packing", "affine_coordinates", "linalg.affine_coordinates",
     None),
    ("minkarr.polytopes", "affine_coordinates", "linalg.affine_coordinates",
     None),
    ("minkarr.packing", "hull", "polytopes.hull", _hull_vertices),
    ("minkarr.polytopes", "hull", "polytopes.hull", _hull_vertices),
    ("minkarr.packing", "shrink", "polytopes.shrink", None),
    ("minkarr.packing", "interiors_disjoint", "polytopes.disjoint",
     _disjoint_true),
    ("minkarr.packing", "volume", "polytopes.volume", None),
    ("minkarr.lp", "simplex_max", "lp.simplex", None),
    # VPolytopeBody.gauge delegates to its HPolytopeBody facet form in the
    # dimensions benchmarked, so only the two leaf gauges are wrapped and
    # each gauge evaluation is one call
    ("minkarr.bodies", "HPolytopeBody.gauge", "bodies.gauge", None),
    ("minkarr.bodies", "BallBody.gauge", "bodies.gauge", None),
    ("minkarr.bodies", "HPolytopeBody.support", "bodies.support", None),
    ("minkarr.bodies", "VPolytopeBody.support", "bodies.support", None),
    ("minkarr.bodies", "BallBody.support", "bodies.support", None),
)


class Tracer:
    """Span recorder with per-op folding into per-layer aggregates."""

    def __init__(self):
        self.kept: List[dict] = []
        self.self_ns: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.observed: Dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_ns = 0.0
        self.missing_sites: List[str] = []
        self._names: List[str] = []
        self._parents: List[int] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._stack: List[int] = [-1]

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]):
        names, parents = self._names, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        observed = self.observed
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                key, value = observe(result)
                observed[key] += value
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every site's wrapper; restore the originals on exit."""
        undo = []
        try:
            for module_name, path, name, observe in SITES:
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for cls_name in classes:
                    owner = getattr(owner, cls_name, None)
                if owner is None or not hasattr(owner, attr):
                    site = "%s.%s" % (module_name, path)
                    if site not in self.missing_sites:
                        self.missing_sites.append(site)
                    continue
                own = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, observe))
                undo.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def run_op(self, fn: Callable, *args, scale: float = 1.0):
        """Call fn under a root span, then fold the op's spans into the
        totals, each duration multiplied by ``scale``."""
        root = self._wrap(ROOT, fn, None)
        try:
            return root(*args)
        finally:
            self._fold(scale)

    def _fold(self, scale: float) -> None:
        names, parents = self._names, self._parents
        starts, ends = self._starts, self._ends
        child_ns = [0] * len(names)
        for idx, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[idx] - starts[idx]
        for idx, name in enumerate(names):
            duration = ends[idx] - starts[idx]
            self.self_ns[name] += (duration - child_ns[idx]) * scale
            self.calls[name] += 1
            if parents[idx] < 0:
                self.op_ns += duration * scale
        self.ops += 1
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            base = starts[0] if starts else 0
            for idx in range(min(room, len(names))):
                self.kept.append({"op": self.ops, "id": idx,
                                  "name": names[idx],
                                  "parent": parents[idx],
                                  "start_ns": starts[idx] - base,
                                  "end_ns": ends[idx] - base})
        del names[:], parents[:], starts[:], ends[:]

    def self_ms_per_op(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6 / max(self.ops, 1)

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.ops, 1)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.kept:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")
