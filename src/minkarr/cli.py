"""Command-line front end.

Subcommands: ``verify`` (arrangement predicates plus, in dimension <= 2, the
full lifted packing certificate), ``lift`` (per-pair shadow diagnostics, slab
verification, optional SVG), ``search`` (seeded local search for large
arrangements), ``kdist`` (spectra, grids, greedy chains).

Exit codes are a stable contract: 0 all checks pass, 1 a check failed, 2 the
input could not be parsed or was otherwise invalid, an unwritable output
path included.  Subcommands raise ``InputError`` for those, and ``main``
prints it as one ``input error: <message>`` line; unusable input is found
before the report starts, so it leaves stdout empty.  A closed stdout is an
unwritable output too, with one ``input error:`` line.  Any other exception
raised by a subcommand is a bug, not a failed check: it also exits 2, with
one ``internal error: <Type>: <message>`` line on stderr and no traceback.
Every report prints the seed and scalar mode it ran under.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import scalars
from .arrangement import (Arrangement, Homothet, SearchConfig,
                          arrangement_from_json, arrangement_size_bound,
                          arrangement_to_json, check_warm_start,
                          find_intersection_violation,
                          find_minkowski_violation, search_arrangement)
from .bodies import BallBody, body_from_json, l1_ball, linf_ball
from .diagram import render_projection_plane
from .kdistance import (chain_to_json, grid_set, greedy_chain,
                        guaranteed_length, pointset_from_json,
                        pointset_to_json, spectrum)
from .lifting import build_frame, pair_diagnostics, shadow
from .linalg import Vector
from .packing import certificate_to_json, lifted_packing_pipeline
from .scalars import format_scalar


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


class InputError(Exception):
    """Unusable input file or flag combination (exit code 2)."""


@contextlib.contextmanager
def _reading_input():
    """A ``ValueError`` raised while the input is read and checked is an
    ``InputError``; one raised later is a bug."""
    try:
        yield
    except ValueError as exc:
        raise InputError(exc) from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc


def _dump_json(path: str, obj) -> None:
    """Write obj as ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    newline, the same bytes, by ``_encode``."""
    out = []
    _encode(obj, "\n", out)
    out.append("\n")
    _write_text(path, "".join(out))


def _encode(obj, newline: str, out: list) -> None:
    """Append the indent-2, sorted-key JSON text of obj to out, each line
    break written as ``newline``, a newline and the indent of obj.  Strings
    go through ``encode_basestring_ascii``, ints and finite floats through
    ``int.__repr__`` and ``float.__repr__``, as in ``json``'s encoder, and
    every other leaf through ``json.dumps``.  Keys must be strings, as in
    every payload written here."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float) and math.isfinite(obj):
        out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + "  ", "["
        for x in obj:
            out.append(sep + inner)
            _encode(x, inner, out)
            sep = ","
        out.append(newline + "]" if obj else "[]")
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for key, x in sorted(obj.items()):
            out.append(sep + inner + _quote(key) + ": ")
            _encode(x, inner, out)
            sep = ","
        out.append(newline + "}" if obj else "{}")
    else:
        out.append(json.dumps(obj))


def _scalars(members):
    return [x for h in members for x in h.center.coords + (h.ratio,)]


def _load_arrangement(args) -> Arrangement:
    """The arrangement file of ``verify`` and ``lift``, its scalars, the
    body's facets included, coerced to floats under ``--mode float``."""
    with _reading_input():
        arr = arrangement_from_json(_load_json(args.arrangement))
        scalars.check_float_range(_scalars(arr.members), args.mode == "float"
                                  or not arr.body.exact)
        if args.mode == "float":
            arr = Arrangement(arr.body.as_float(), tuple(
                Homothet(Vector(float(c) for c in h.center), float(h.ratio))
                for h in arr.members))
    return arr


def _banner(args, mode: str = "") -> None:
    """The seed and the scalar mode: ``mode``, the route a command took
    from its input, or else the ``--mode`` flag."""
    print("seed: %d" % args.seed)
    print("mode: %s  eps: %g" % (mode or args.mode, scalars.TOLERANCE))


def cmd_verify(args) -> int:
    arr = _load_arrangement(args)
    _banner(args)
    # in dimension <= 2 the pipeline's first two stages are the two
    # predicates, so each runs once; one the pipeline did not reach runs here
    cert = lifted_packing_pipeline(arr) if arr.dim <= 2 else None
    passed = {s.name: s.passed for s in cert.stages} if cert else {}
    checks = {}
    for key, stage, label, find in (
            ("minkowski", "minkowski_property", "minkowski-arrangement",
             find_minkowski_violation),
            ("intersecting", "pairwise_intersecting", "pairwise-intersecting",
             find_intersection_violation)):
        if stage in passed:
            violation = None if passed[stage] else cert.offending_pair
        else:
            violation = find(arr)
        checks[key] = violation is None
        print("%s: %s" % (label, "PASS" if violation is None
                          else "FAIL at pair (%d, %d)" % violation))
    failed = not all(checks.values())

    cert_json = None
    if cert is not None and not failed:
        cert_json = certificate_to_json(cert)
        if cert.verdict:
            print("lifted-packing-certificate: PASS  %d <= %d"
                  % (cert.n, cert.bound))
        else:
            pair = cert.offending_pair
            where = " at pair (%d, %d)" % pair if pair else ""
            print("lifted-packing-certificate: FAIL stage %s%s"
                  % (cert.failed_stage, where))
            failed = True
    elif cert is None:
        print("lifted-packing-certificate: SKIP (needs dimension <= 2)")

    if args.certificate:
        payload = {"checks": checks,
                   "seed": args.seed, "mode": args.mode,
                   "certificate": cert_json}
        _dump_json(args.certificate, payload)
        print("certificate written to %s" % args.certificate)
    print("verdict: %s" % ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def cmd_lift(args) -> int:
    arr = _load_arrangement(args)
    i, j = args.pair
    if not (0 <= i < len(arr) and 0 <= j < len(arr)) or i == j:
        raise InputError("pair (%d, %d) is out of range for %d members"
                         % (i, j, len(arr)))
    try:
        frame = build_frame(arr, i, j)
        sd = shadow(arr, frame)
        diag = pair_diagnostics(arr, frame, sd)
    except ValueError as exc:
        _banner(args)
        print("construction failed: %s" % exc, file=sys.stderr)
        return 1
    _banner(args)
    print("alphas: %s" % diag["alphas"])
    print("intervals: %s" % diag["intervals"])
    print("x: %s  u_i: %s  u_j: %s" % (diag["x"], diag["u_i"], diag["u_j"]))
    print("width ratio: %s" % diag["ratio"])
    print("slab offsets: k_ij=%s k_ji=%s g_ij=%s g_ji=%s"
          % (diag["slab"]["c_k_ij"], diag["slab"]["c_k_ji"],
             diag["slab"]["c_g_ij"], diag["slab"]["c_g_ji"]))
    ok = diag["slab_contains_all"]
    print("slab containment: %s" % ("PASS" if ok else
                                    "FAIL at member %s" % diag["slab_offender"]))
    if args.dump:
        _dump_json(args.dump, diag)
        print("diagnostics written to %s" % args.dump)
    if args.svg:
        _write_text(args.svg, render_projection_plane(arr, frame, sd))
        print("diagram written to %s" % args.svg)
    return 0 if ok else 1


def cmd_search(args) -> int:
    with _reading_input():
        body = body_from_json(_load_json(args.body))
        cfg = SearchConfig(seed=args.seed, iterations=args.iters)
        warm = None
        if args.init:
            warm = arrangement_from_json(_load_json(args.init))
            # the search draws its centers in a float box around the members
            scalars.check_float_range(_scalars(warm.members), True)
            check_warm_start(body, warm)
    # the search takes its route from the input, not from --mode
    _banner(args, "exact" if body.exact and (warm is None or warm.form)
            else "float")
    arr = search_arrangement(body, body.dim, cfg, warm_start=warm)
    bound = arrangement_size_bound(body.dim)
    print("best size: %d (bound 3^(d+1) = %d)" % (len(arr), bound))
    # search_arrangement re-verifies its result with the full predicate
    # pass and raises when it fails
    print("re-verified: PASS")
    if args.out:
        _dump_json(args.out, arrangement_to_json(arr))
        print("arrangement written to %s" % args.out)
    return 0


def cmd_grid(args) -> int:
    with _reading_input():
        pts = grid_set(args.d, args.k)
    _banner(args, "exact")
    print("grid {0..%d}^%d: %d points" % (args.k, args.d, len(pts)))
    if args.out:
        _dump_json(args.out, pointset_to_json(pts))
        print("point set written to %s" % args.out)
    return 0


def _body_and_points(args):
    """The point set of ``spectrum`` and ``chain``, read first, the body of
    ``--body``, else the unit ball of ``--norm`` in its dimension, and the
    route their distances take: ``exact`` when the body and every point are
    exact, ``float`` otherwise, whatever ``--mode`` says."""
    pts = pointset_from_json(_load_json(args.points))
    if args.body:
        body = body_from_json(_load_json(args.body))
    else:
        body = {"linf": linf_ball, "l1": l1_ball, "l2": BallBody}[args.norm](
            pts.dim)
    values = [x for p in pts.points for x in p]
    scalars.check_float_range(values, not body.exact)
    return body, pts, ("exact" if body.exact and scalars.is_exact(*values)
                       else "float")


def cmd_spectrum(args) -> int:
    with _reading_input():
        body, pts, route = _body_and_points(args)
        spec = spectrum(body, pts)
    _banner(args, route)
    print("distances: %d" % len(spec))
    for dist, mult in spec.entries:
        print("  %s  x%d" % (format_scalar(dist), mult))
    return 0


def cmd_chain(args) -> int:
    with _reading_input():
        body, pts, route = _body_and_points(args)
        target = guaranteed_length(len(pts), args.k) \
            if args.target is None else args.target
        chain = greedy_chain(body, pts, args.k, target)
    _banner(args, route)
    payload = chain_to_json(body, chain)  # the one replay of the chain
    print("chain length %d of target %d (guaranteed: %s)"
          % (len(chain), target, chain.guaranteed))
    print("lambdas: %s" % payload["lambdas"])
    print("chain verification: %s" % ("PASS" if payload["verified"]
                                       else "FAIL"))
    if args.out:
        _dump_json(args.out, payload)
        print("chain written to %s" % args.out)
    return 0 if payload["verified"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process (parsing leaves no state in it)."""
    parser = argparse.ArgumentParser(
        prog="minkarr",
        description="Verification toolkit for pairwise intersecting "
                    "Minkowski arrangements of symmetric convex homothets.")
    parser.add_argument("--mode", choices=("exact", "float"), default="exact",
                        help="keep rational scalars exact or coerce to floats")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized components")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the arrangement predicates and, "
                                      "in dimension <= 2, the packing "
                                      "certificate")
    p.add_argument("arrangement", help="arrangement JSON file")
    p.add_argument("--certificate", help="write the full certificate JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lift", help="shadow diagnostics and slab checks "
                                    "for one pair")
    p.add_argument("arrangement", help="arrangement JSON file")
    p.add_argument("--pair", nargs=2, type=int, required=True,
                   metavar=("I", "J"))
    p.add_argument("--svg", help="write the projection-plane diagram here")
    p.add_argument("--dump", help="write the pair diagnostics JSON here")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("search", help="seeded local search for large "
                                      "arrangements")
    p.add_argument("body", help="body JSON file")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--init", help="warm-start arrangement JSON file")
    p.add_argument("--out", help="write the best arrangement here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("kdist", help="distance spectra, grids and chains")
    ksub = p.add_subparsers(dest="kdist_cmd", required=True)
    ps = ksub.add_parser("spectrum")
    ps.add_argument("points", help="point set JSON file")
    ps.add_argument("--body", help="body JSON file")
    ps.add_argument("--norm", choices=("linf", "l1", "l2"), default="linf")
    ps.set_defaults(func=cmd_spectrum)
    pg = ksub.add_parser("grid")
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_grid)
    pc = ksub.add_parser("chain")
    pc.add_argument("points", help="point set JSON file")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--target", type=int, help="default: guaranteed length")
    pc.add_argument("--body", help="body JSON file")
    pc.add_argument("--norm", choices=("linf", "l1", "l2"), default="linf")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_chain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader of stdout is gone, an unwritable output; the rest of
        # the output goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("input error: cannot write to stdout: %s" % exc,
              file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a failed check: exit 2
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
