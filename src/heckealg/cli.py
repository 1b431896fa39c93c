"""Command-line front end: describe | check | count.

Exit codes: 0 success, 1 invariant-suite failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import checks
from .pipeline import (BUILTIN_EXAMPLES, ValidationError, assemble,
                       datum_from_json, parse_q, specialize_report)
from .spectra import common_order, extended_quotient_count
from .weyl import ENUMERATION_CAP

POINT_ENUM_CAP = 200_000


def _load_datum(args):
    if args.example:
        if args.example not in BUILTIN_EXAMPLES:
            raise ValidationError(["unknown example %r; available: %s"
                                   % (args.example,
                                      ", ".join(sorted(BUILTIN_EXAMPLES)))])
        return datum_from_json(BUILTIN_EXAMPLES[args.example])
    if not args.input:
        raise ValidationError(["provide --input FILE or --example NAME"])
    with open(args.input, "r", encoding="utf-8") as fh:
        return datum_from_json(fh.read())


def cmd_describe(args) -> int:
    datum = _load_datum(args)
    report = assemble(datum)
    q = parse_q(report, args.q)
    specs = specialize_report(report, q)   # may refuse q: nothing printed yet
    if args.format == "json":
        doc = report.to_json()
        doc["specializations"] = specs
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(report.to_text())
        if q != 1:
            print("at q = %s:" % q)
            for rel in specs:
                val = rel.get("q_power_value")
                extra = "  [q^m = %s]" % val if val else ""
                print("  " + rel["relation"] + extra)
    return 0


def cmd_check(args) -> int:
    # the size flags are capped at ten times their defaults
    for flag, cap in (("triples", 2000), ("im_pairs", 1000),
                      ("cone_samples", 10_000)):
        value = getattr(args, flag)
        if not 1 <= value <= cap:
            bound = "<= %d" % cap if value > cap else ">= 1"
            raise ValidationError(["--%s must be %s"
                                   % (flag.replace("_", "-"), bound)])
    results = checks.run_all(seed=args.seed, triples=args.triples,
                             im_pairs=args.im_pairs,
                             cone_samples=args.cone_samples)
    width = max((len(r[0]) for r in results), default=20)
    for name, ok, detail in results:
        print("%-*s  %-4s  %s" % (width, name, "ok" if ok else "FAIL", detail))
    failures = sum(not ok for _, ok, _ in results)
    print("%d checks, %d failure(s)" % (len(results), failures))
    return 1 if failures else 0


def cmd_count(args) -> int:
    datum = _load_datum(args)
    report = assemble(datum)
    desc = report.descriptor
    rank = desc.rd.rank
    n = args.order
    if n < 1:
        raise ValidationError(["point order must be >= 1"])
    # points are counted at the common order with the translation parts,
    # so that order bounds the work
    common = common_order(desc.wext, [n])
    if common ** rank > POINT_ENUM_CAP:
        raise ValidationError(["%d^%d points exceed the enumeration cap %d"
                               % (common, rank, POINT_ENUM_CAP)])
    group_order = report.group_order * desc.wext.rgroup.order()
    if group_order > ENUMERATION_CAP:
        raise ValidationError(["|W_ext| = %d exceeds the enumeration cap %d"
                               % (group_order, ENUMERATION_CAP)])
    canonicalize = None
    lattice = report.character_lattice
    if lattice is not None and rank:   # on rank 0, () is canonical
        wr = tuple(x // lattice["quotient_order"]
                   for x in lattice["constraint"])

        def canonicalize(e, order):
            return min(tuple((a + k * b) % order for a, b in zip(e, wr))
                       for k in range(order))

    # the points of order dividing n, as exponents at the common order
    pts = itertools.product(range(0, common, common // n), repeat=rank)
    total, orbits = extended_quotient_count(desc.wext, desc.cocycle, common,
                                            pts, canonicalize)
    doc = {
        "order": n,
        "torus_dim": rank,
        "total": total,
        "orbits": [{
            "representative": list(o.representative),
            "orbit_size": o.orbit_size,
            "stabilizer_order": o.stabilizer_order,
            "count": o.count,
        } for o in orbits],
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("points of order dividing %d on a rank-%d torus" % (n, rank))
        print("total irreducibles: %d in %d orbit(s)" % (total, len(orbits)))
        for o in orbits:
            print("  rep %r  orbit %d  stabilizer %d  count %d"
                  % (list(o.representative), o.orbit_size,
                     o.stabilizer_order, o.count))
    return 0


@functools.cache   # once per process: parsing does not change the parser
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heckealg",
        description="Twisted affine Hecke algebras from inertial data")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("describe", help="assemble and print a Hecke report")
    d.add_argument("--input", help="JSON inertial datum")
    d.add_argument("--example", help="built-in example name")
    d.add_argument("--q", default="1", help="specialization base, rational a/b")
    d.add_argument("--format", choices=("text", "json"), default="text")
    d.set_defaults(func=cmd_describe)

    c = sub.add_parser("check", help="run the exact invariant suites")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--triples", type=int, default=200)
    c.add_argument("--im-pairs", type=int, default=100)
    c.add_argument("--cone-samples", type=int, default=1000)
    c.set_defaults(func=cmd_check)

    n = sub.add_parser("count", help="extended-quotient counts at torus points")
    n.add_argument("--input", help="JSON inertial datum")
    n.add_argument("--example", help="built-in example name")
    n.add_argument("--order", type=int, default=1,
                   help="count points of order dividing N")
    n.add_argument("--format", choices=("text", "json"), default="text")
    n.set_defaults(func=cmd_count)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-1/2" after --q for an option
    while "--q" in argv[:-1]:
        i = argv.index("--q")
        argv[i:i + 2] = ["--q=" + argv[i + 1]]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
